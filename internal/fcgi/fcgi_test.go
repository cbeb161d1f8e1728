package fcgi

import (
	"bytes"
	"fmt"
	"testing"

	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/kernel"
	"iolite/internal/sim"
)

// bed is one machine with a server process, for direct Conn/Mux/pool
// tests.
type bed struct {
	eng *sim.Engine
	m   *kernel.Machine
	srv *kernel.Process
}

func newBed() *bed {
	eng := sim.New()
	m := kernel.NewMachine(eng, sim.DefaultCosts(), kernel.Config{})
	return &bed{eng: eng, m: m, srv: m.NewProcess("srv", 2<<20)}
}

// doc deterministically generates n bytes.
func doc(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*7 + 1)
	}
	return d
}

// echoPool builds a pool whose handler echoes the params back count times
// followed by any stdin, exercising both payload modes.
func echoPool(b *bed, workers, depth int, ref bool) *WorkerPool {
	return NewWorkerPool(PoolConfig{
		Machine: b.m,
		Server:  b.srv,
		Workers: workers,
		Depth:   depth,
		Ref:     ref,
		Name:    "echo",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			body := append([]byte(nil), req.Params...)
			if req.StdinAgg != nil {
				body = append(body, req.StdinAgg.Materialize()...)
				req.StdinAgg.Release()
			}
			body = append(body, req.Stdin...)
			if ref {
				out := core.PackBytes(p, w.Proc.Pool, body)
				if err := req.WriteStdout(p, out); err != nil {
					out.Release()
					return
				}
			} else {
				if err := req.WriteStdoutBytes(p, body); err != nil {
					return
				}
			}
			req.End(p, uint32(len(req.Params)))
		},
	})
}

func TestConnFramesRecordsBothModes(t *testing.T) {
	for _, ref := range []bool{false, true} {
		t.Run(fmt.Sprintf("ref=%v", ref), func(t *testing.T) {
			b := newBed()
			other := b.m.NewProcess("peer", 1<<20)
			mode, wire := ipcsim.ModeCopy, WireCopy
			if ref {
				mode, wire = ipcsim.ModeRef, WireRef
			}
			rfd, wfd := b.m.Pipe2(b.srv, other, mode)
			back, backW := b.m.Pipe2(other, b.srv, mode)
			sc := NewConnModes(b.m, b.srv, rfd, backW, 0, wire, wire)
			oc := NewConnModes(b.m, other, back, wfd, 0, wire, wire)

			payload := doc(100_000) // several copy-mode pipe buffers
			b.eng.Go("peer", func(p *sim.Proc) {
				rec := Record{Header: Header{Type: RecStdout, ReqID: 7}}
				if ref {
					rec.Agg = core.PackBytes(p, other.Pool, payload)
				} else {
					rec.Bytes = payload
				}
				if err := oc.WriteRecord(p, rec); err != nil {
					t.Errorf("WriteRecord: %v", err)
				}
				if err := oc.WriteRecord(p, Record{Header: Header{Type: RecEnd, Flags: FlagEndStream, ReqID: 7, Length: 42}}); err != nil {
					t.Errorf("WriteRecord END: %v", err)
				}
			})
			b.eng.Go("srv", func(p *sim.Proc) {
				rec, err := sc.ReadRecord(p)
				if err != nil {
					t.Errorf("ReadRecord: %v", err)
					return
				}
				if rec.Type != RecStdout || rec.ReqID != 7 || rec.payloadLen() != len(payload) {
					t.Errorf("got %v req %d len %d", rec.Type, rec.ReqID, rec.payloadLen())
				}
				if !bytes.Equal(rec.payloadBytes(), payload) {
					t.Error("payload corrupted in framing")
				}
				rec.Release()
				end, err := sc.ReadRecord(p)
				if err != nil || end.Type != RecEnd || end.Length != 42 {
					t.Errorf("END record = %+v, %v; want status 42", end.Header, err)
				}
				end.Release()
			})
			b.eng.Run()
		})
	}
}

func TestPoolServesRequestsBothModes(t *testing.T) {
	for _, ref := range []bool{false, true} {
		t.Run(fmt.Sprintf("ref=%v", ref), func(t *testing.T) {
			b := newBed()
			pool := echoPool(b, 2, 4, ref)
			b.eng.Go("client", func(p *sim.Proc) {
				resp, err := pool.Do(p, Request{Params: []byte("/hello"), Stdin: []byte("+body")})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if got := string(resp.Payload()); got != "/hello+body" {
					t.Errorf("payload = %q, want %q", got, "/hello+body")
				}
				if resp.Status != 6 {
					t.Errorf("status = %d, want 6", resp.Status)
				}
				resp.Release()
			})
			b.eng.Run()
			if reqs, fails, _ := pool.Stats(); reqs != 1 || fails != 0 {
				t.Errorf("pool stats = %d reqs, %d failures", reqs, fails)
			}
		})
	}
}

// TestServeDuplicateBeginReleasesStaleState: a duplicate BEGIN on a live
// request id must not leak the half-assembled request's stdin buffer
// references — Serve drops them and starts the request over.
func TestServeDuplicateBeginReleasesStaleState(t *testing.T) {
	b := newBed()
	worker := b.m.NewProcess("worker", 1<<20)
	reqR, reqW := b.m.Pipe2(worker, b.srv, ipcsim.ModeRef)
	respR, respW := b.m.Pipe2(b.srv, worker, ipcsim.ModeRef)
	wconn := NewConnModes(b.m, worker, reqR, respW, 0, WireRef, WireRef)
	sconn := NewConnModes(b.m, b.srv, respR, reqW, 0, WireRef, WireRef)

	var served []byte
	b.eng.Go("worker", func(p *sim.Proc) {
		Serve(p, wconn, func(hp *sim.Proc, req *ServerRequest) {
			served = append([]byte(nil), req.Stdin...)
			if req.StdinAgg != nil {
				served = append(served, req.StdinAgg.Materialize()...)
				req.StdinAgg.Release()
			}
			req.ReplyBytes(hp, served, 0)
		})
		wconn.Close(p)
	})
	var staleBuf *core.Buffer
	b.eng.Go("srv", func(p *sim.Proc) {
		// First attempt: BEGIN + a stdin fragment, then a duplicate BEGIN
		// restarting the request before the stream ends.
		hdr := Header{Type: RecBegin, ReqID: 9}
		sconn.WriteRecord(p, Record{Header: hdr})
		stale := core.PackBytes(p, b.srv.Pool, []byte("stale-stdin"))
		staleBuf = stale.Slices()[0].Buf
		sconn.WriteRecord(p, Record{Header: Header{Type: RecStdin, ReqID: 9}, Agg: stale})
		sconn.WriteRecord(p, Record{Header: hdr}) // duplicate BEGIN
		sconn.WriteRecord(p, Record{Header: Header{Type: RecParams, Flags: FlagEndStream, ReqID: 9}, Bytes: []byte("/p")})
		fresh := core.PackBytes(p, b.srv.Pool, []byte("fresh"))
		sconn.WriteRecord(p, Record{Header: Header{Type: RecStdin, Flags: FlagEndStream, ReqID: 9}, Agg: fresh})
		// Drain the response records.
		rec, err := sconn.ReadRecord(p)
		for err == nil && rec.Type != RecEnd {
			rec.Release()
			rec, err = sconn.ReadRecord(p)
		}
		sconn.Close(p)
	})
	b.eng.Run()

	if string(served) != "fresh" {
		t.Errorf("served %q, want only the post-restart stdin %q", served, "fresh")
	}
	// The stale fragment's reference was dropped by the worker, not
	// pinned: the only reference left on its (shared, packed) buffer is
	// the pool's own open-pack-buffer reference.
	if refs := staleBuf.Refs(); refs != 1 {
		t.Errorf("stale stdin buffer holds %d refs, want 1 (leaked by duplicate BEGIN)", refs)
	}
}
