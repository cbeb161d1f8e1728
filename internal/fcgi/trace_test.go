package fcgi

import (
	"fmt"
	"testing"
	"time"

	"iolite/internal/obs"
	"iolite/internal/sim"
)

// tracedPool builds a supervised pool whose handler records the trace id
// each request arrived with — the worker-side end of the id that rides
// the record-header extension across the transport.
func tracedPool(b *bed, tr Transport, col *obs.Collector, seen *[]uint32) *WorkerPool {
	return NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 2, Depth: 2,
		Ref: true, Transport: tr, Name: "tp", Obs: col,
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			*seen = append(*seen, req.TraceID)
			p.Sleep(100 * time.Microsecond)
			req.ReplyBytes(p, []byte("ok"), 0)
		},
	})
}

// TestTraceIDPropagatesOverEveryTransport sends traced requests over each
// transport: the worker-side handler must see exactly the client span's
// id (pipe, loopback socket, and the remote socket — where the id is the
// only thing tying the two machines' work together), and the worker's
// service interval must come back as a RemoteMark on the client span.
func TestTraceIDPropagatesOverEveryTransport(t *testing.T) {
	for _, trName := range []string{"pipe", "sock-local", "sock-remote"} {
		t.Run(trName, func(t *testing.T) {
			b := newBed()
			col := obs.New()
			col.Attach(b.eng, b.m.Costs)
			var seen []uint32
			pool := tracedPool(b, buildTransport(b, trName, true), col, &seen)

			const reqs = 4
			spans := make([]*obs.Span, reqs)
			for i := 0; i < reqs; i++ {
				i := i
				b.eng.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
					sp := col.Start(trName, p.Now())
					spans[i] = sp
					p.SetAttrib(sp)
					_, err := pool.Do(p, Request{Params: []byte("/x"), Span: sp})
					p.SetAttrib(nil)
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						sp.Abandon()
						return
					}
					sp.Finish(p.Now())
				})
			}
			b.eng.Run()

			want := map[uint32]bool{}
			for _, sp := range spans {
				if sp.ID() == 0 {
					t.Fatal("client span has id 0")
				}
				want[sp.ID()] = true
			}
			if len(seen) != reqs {
				t.Fatalf("workers saw %d trace ids, want %d", len(seen), reqs)
			}
			for _, id := range seen {
				if !want[id] {
					t.Errorf("worker saw trace id %d, not any client span's", id)
				}
			}
			wantHost := "server"
			if trName == "sock-remote" {
				wantHost = "wkr"
			}
			for i, sp := range spans {
				if sp.PhaseSum() != sp.Latency() {
					t.Errorf("span %d: phase sum %v != latency %v", i, sp.PhaseSum(), sp.Latency())
				}
				rms := sp.Remotes()
				if len(rms) != 1 {
					t.Fatalf("span %d: %d remote marks, want 1", i, len(rms))
				}
				if rms[0].Host != wantHost {
					t.Errorf("span %d: remote mark host %q, want %q", i, rms[0].Host, wantHost)
				}
				if rms[0].End.Sub(rms[0].Start) < sim.Duration(100*time.Microsecond) {
					t.Errorf("span %d: remote interval %v shorter than the handler's work", i, rms[0].End.Sub(rms[0].Start))
				}
				if sp.PhaseDur(obs.PhaseService) == 0 {
					t.Errorf("span %d: no service-phase time despite a 100µs worker handler", i)
				}
			}
		})
	}
}

// TestTracePropagatesAcrossRespawn kills a worker, lets supervision
// respawn it, and sends a traced wave afterward: the replacement's fresh
// channel must still carry trace ids end to end.
func TestTracePropagatesAcrossRespawn(t *testing.T) {
	b := newBed()
	col := obs.New()
	col.Attach(b.eng, b.m.Costs)
	var seen []uint32
	pool := tracedPool(b, buildTransport(b, "sock-remote", true), col, &seen)
	victim := pool.Workers()[0]

	b.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond)
		victim.Conn().Close(p)
	})
	var sp *obs.Span
	b.eng.Go("client", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // well past the respawn
		sp = col.Start("post-respawn", p.Now())
		p.SetAttrib(sp)
		_, err := pool.Do(p, Request{Params: []byte("/x"), Span: sp})
		p.SetAttrib(nil)
		if err != nil {
			t.Errorf("post-respawn request: %v", err)
			sp.Abandon()
			return
		}
		sp.Finish(p.Now())
	})
	b.eng.Run()

	if got := pool.Respawns(); got != 1 {
		t.Fatalf("respawns = %d, want 1", got)
	}
	if len(seen) != 1 || seen[0] != sp.ID() {
		t.Fatalf("worker-side trace ids %v, want exactly [%d]", seen, sp.ID())
	}
	if rms := sp.Remotes(); len(rms) != 1 || rms[0].Host != "wkr" {
		t.Fatalf("remote marks %v, want one from host wkr", rms)
	}
}

// TestUntracedRequestsCarryNoID pins the off-by-default behavior: a
// request without a span delivers trace id 0 and frames no FlagTraced
// extension (the header-level wire identity is pinned in record tests).
func TestUntracedRequestsCarryNoID(t *testing.T) {
	b := newBed()
	var seen []uint32
	pool := tracedPool(b, buildTransport(b, "pipe", true), nil, &seen)
	b.eng.Go("client", func(p *sim.Proc) {
		if _, err := pool.Do(p, Request{Params: []byte("/x")}); err != nil {
			t.Errorf("untraced request: %v", err)
		}
	})
	b.eng.Run()
	if len(seen) != 1 || seen[0] != 0 {
		t.Errorf("untraced request delivered trace ids %v, want [0]", seen)
	}
}
