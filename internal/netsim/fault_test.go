package netsim

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// refTransfer runs one server→client ref-mode transfer of want under the
// given link fault plan and returns the received bytes plus the copied-byte
// meter reading for the whole run.
func refTransfer(t *testing.T, fp *FaultPlan, want []byte) (got []byte, copied int64, r *rig) {
	t.Helper()
	ck := cksum.NewCache(0)
	r = newRig(true, ck, 100*time.Microsecond)
	if fp != nil {
		r.link.SetFaultPlan(fp)
	}
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	return got, r.costs.Stats().CopiedBytes, r
}

// TestDropRetransmitRecovers pins the tentpole invariant: under segment
// loss, go-back-N retransmission recovers every byte, re-sending dropped
// ref segments costs zero additional copies (identical copied-byte meter to
// the fault-free run), and no aggregate references leak.
func TestDropRetransmitRecovers(t *testing.T) {
	want := pattern(300 << 10)
	cleanGot, cleanCopied, _ := refTransfer(t, nil, want)
	if !bytes.Equal(cleanGot, want) {
		t.Fatal("fault-free baseline corrupted")
	}

	got, copied, r := refTransfer(t, &FaultPlan{DropProb: 0.05, Seed: 1}, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", len(got), len(want))
	}
	segs, rbytes := r.server.Stats().RetransSegs, r.server.Stats().RetransBytes
	if segs == 0 || rbytes == 0 {
		t.Fatal("5% loss produced no retransmissions")
	}
	dropped, _ := r.link.FaultPlan().Stats()
	if dropped == 0 {
		t.Fatal("fault plan recorded no drops")
	}
	if copied != cleanCopied {
		t.Fatalf("retransmission re-charged copies: %d copied bytes lossy vs %d clean", copied, cleanCopied)
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("retransmission leaked buffer references: %d live pages", live)
	}
}

// TestCorruptionCaughtByCksum pins that corrupted segments pay their
// receive-side work, are rejected by checksum verification, and are then
// recovered exactly like drops.
func TestCorruptionCaughtByCksum(t *testing.T) {
	want := pattern(200 << 10)
	got, _, r := refTransfer(t, &FaultPlan{CorruptProb: 0.05, Seed: 7}, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("transfer under corruption mangled: got %d bytes, want %d", len(got), len(want))
	}
	if r.client.Stats().CorruptIn == 0 {
		t.Fatal("no segments were rejected by checksum verification")
	}
	_, corrupted := r.link.FaultPlan().Stats()
	if corrupted != r.client.Stats().CorruptIn {
		t.Fatalf("plan corrupted %d segments, receiver rejected %d", corrupted, r.client.Stats().CorruptIn)
	}
	segs := r.server.Stats().RetransSegs
	if segs == 0 {
		t.Fatal("corruption produced no retransmissions")
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("leaked %d live pages", live)
	}
}

// TestPartitionWindowRecovers pins transient-outage behavior: every segment
// offered during the window vanishes, RTO backoff rides it out, and the
// transfer completes shortly after the wire heals.
func TestPartitionWindowRecovers(t *testing.T) {
	want := pattern(64 << 10)
	fp := &FaultPlan{Partitions: []PartitionWindow{
		{From: sim.Time(2 * time.Millisecond), To: sim.Time(30 * time.Millisecond)},
	}}
	got, _, r := refTransfer(t, fp, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("transfer across partition corrupted: got %d bytes", len(got))
	}
	dropped, _ := fp.Stats()
	if dropped == 0 {
		t.Fatal("partition window dropped nothing")
	}
	if now := r.eng.Now(); now < sim.Time(30*time.Millisecond) {
		t.Fatalf("transfer finished at %v, inside the partition", now)
	}
	// Exponential backoff must keep the retry storm bounded: a 28 ms outage
	// with a 1 ms initial RTO doubling to 1 s allows only a handful of
	// probes per in-flight window.
	if segs := r.server.Stats().RetransSegs; segs > 300 {
		t.Fatalf("backoff failed: %d retransmissions for a 28ms outage", segs)
	}
}

// TestCopyModeDropRecovers pins copy-mode recovery: socket-buffer pages
// stay reserved across retransmissions and drain to zero once everything
// is acknowledged.
func TestCopyModeDropRecovers(t *testing.T) {
	r := newRig(false, nil, 100*time.Microsecond)
	r.link.SetFaultPlan(&FaultPlan{DropProb: 0.03, Seed: 42})
	want := pattern(256 << 10)
	var got []byte
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Data: want}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("copy-mode lossy transfer corrupted: got %d bytes", len(got))
	}
	if segs := r.server.Stats().RetransSegs; segs == 0 {
		t.Fatal("no retransmissions under 3% loss")
	}
	if pages := r.vm.UsedBy(mem.TagSockBuf); pages != 0 {
		t.Fatalf("socket-buffer pages leaked across retransmission: %d", pages)
	}
}

// TestHostFaultPlan pins the per-host attachment point: a plan on the
// sending host injects faults without touching the link.
func TestHostFaultPlan(t *testing.T) {
	ck := cksum.NewCache(0)
	r := newRig(true, ck, 100*time.Microsecond)
	r.server.SetFaultPlan(&FaultPlan{DropProb: 0.05, Seed: 3})
	want := pattern(128 << 10)
	var got []byte
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want)}, nil)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("host-plan lossy transfer corrupted")
	}
	if dropped, _ := r.server.FaultPlan().Stats(); dropped == 0 {
		t.Fatal("host plan dropped nothing")
	}
	if segs := r.server.Stats().RetransSegs; segs == 0 {
		t.Fatal("no retransmissions")
	}
}

// TestShutdownRecvReleasesRefs pins the abandoned-delivery audit: a
// receiver that shuts down with deliveries queued (and more still in
// flight) releases every aggregate reference, while the sender still
// drains — discarded arrivals are acknowledged.
func TestShutdownRecvReleasesRefs(t *testing.T) {
	ck := cksum.NewCache(0)
	r := newRig(true, ck, 100*time.Microsecond)
	want := pattern(200 << 10)
	drained := false
	var clientEnd *Endpoint
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		clientEnd = conn.ClientEnd()
		// Read one delivery, then abandon the rest mid-stream.
		if d, ok := clientEnd.Recv(p); ok {
			d.Release()
		}
		clientEnd.ShutdownRecv()
		if _, ok := clientEnd.Recv(p); ok {
			t.Error("Recv after ShutdownRecv returned data")
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.Send(p, Payload{Agg: core.PackBytes(p, r.pool, want)}, nil)
		ep.Drain(p)
		drained = true
		ep.Close(p)
	})
	r.eng.Run()
	if !drained {
		t.Fatal("sender never drained: discarded deliveries were not acknowledged")
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("abandoned deliveries leaked %d live pages", live)
	}
}

// TestFaultDeterminism pins reproducibility: identical seeds give identical
// drop/corrupt/retransmit counts.
func TestFaultDeterminism(t *testing.T) {
	want := pattern(128 << 10)
	run := func() (int64, int64, int64) {
		_, _, r := refTransfer(t, &FaultPlan{DropProb: 0.04, CorruptProb: 0.02, Seed: 99}, want)
		d, c := r.link.FaultPlan().Stats()
		segs := r.server.Stats().RetransSegs
		return d, c, segs
	}
	d1, c1, s1 := run()
	d2, c2, s2 := run()
	if d1 != d2 || c1 != c2 || s1 != s2 {
		t.Fatalf("chaos not reproducible: (%d,%d,%d) vs (%d,%d,%d)", d1, c1, s1, d2, c2, s2)
	}
}
