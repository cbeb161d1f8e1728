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

// offloadTransfer runs one server→client ref-mode transfer of want with
// segment offload enabled on both hosts, under an optional link fault
// plan, and returns the received bytes and the rig for meter inspection.
func offloadTransfer(t *testing.T, fp *FaultPlan, want []byte, tss int) (got []byte, r *rig) {
	t.Helper()
	ck := cksum.NewCache(0)
	r = newRig(true, ck, 100*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	if fp != nil {
		r.link.SetFaultPlan(fp)
	}
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true, Tss: tss})
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
	return got, r
}

// TestOffloadPacketEconomy pins the tentpole economics: with LSO/GRO on,
// the same payload crosses the wire in far fewer charged transmit units
// (super-segments vs per-MSS packets), the receiver acks at most every
// second event instead of every segment, and the wire itself still
// carries the same MSS-granular chunks.
func TestOffloadPacketEconomy(t *testing.T) {
	want := pattern(300 << 10)

	offGot, _, off := refTransfer(t, nil, want)
	if !bytes.Equal(offGot, want) {
		t.Fatal("offload-off baseline corrupted")
	}
	onGot, on := offloadTransfer(t, nil, want, 0)
	if !bytes.Equal(onGot, want) {
		t.Fatalf("offload transfer corrupted: got %d bytes, want %d", len(onGot), len(want))
	}

	offPkts := off.server.Stats().PktsOut
	onPkts := on.server.Stats().PktsOut
	if onPkts*2 >= offPkts {
		t.Fatalf("offload charged %d transmit units vs %d without — expected <half", onPkts, offPkts)
	}
	// The NIC re-segments super-segments into the same MSS wire chunks.
	if on.server.Stats().SegsOut != offPkts {
		t.Fatalf("offload put %d MSS chunks on the wire, offload-off %d — same payload, same chunks", on.server.Stats().SegsOut, offPkts)
	}
	// Delayed acks: at most one ack per AckEvery receive events (plus the
	// timer flushes), against one per segment without offload.
	offAcks, onAcks := off.client.Stats().AcksOut, on.client.Stats().AcksOut
	if offAcks == 0 || onAcks == 0 {
		t.Fatalf("ack meters silent: off %d, on %d", offAcks, onAcks)
	}
	if onAcks*2 > offAcks {
		t.Fatalf("delayed acks sent %d acks vs %d without offload — expected ≤half", onAcks, offAcks)
	}
	// MeanSegFill measures against the super-segment capacity: never >1.
	if fill := on.server.MeanSegFill(); fill <= 0 || fill > 1 {
		t.Fatalf("offload MeanSegFill %v out of (0, 1]", fill)
	}
}

// TestNagleDelayedAckNoDeadlock pins the classic interaction: a sub-MSS
// tail held by the Nagle auto-cork waits for an ack the receiver is
// delaying. The AckDelay wheel timer must break the stall — the transfer
// completes, and in far less time than a retransmission timeout would
// take (nothing is ever retransmitted on this reliable wire).
func TestNagleDelayedAckNoDeadlock(t *testing.T) {
	want := pattern(MSS + 200) // one full chunk + a corked tail
	got, r := offloadTransfer(t, nil, want, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("corked tail never flushed: got %d bytes, want %d", len(got), len(want))
	}
	if elapsed := time.Duration(r.eng.Now()); elapsed > 5*time.Millisecond {
		t.Fatalf("transfer took %v — Nagle/delayed-ack stall not bounded by AckDelay", elapsed)
	}
	if segs := r.server.Stats().RetransSegs; segs != 0 {
		t.Fatalf("%d retransmissions on a reliable wire", segs)
	}
}

// fastOffloadTransfer is offloadTransfer on a 40 Gb/s, 10 µs wire — fast
// enough that acks beat the 200 µs minimum RTO, so the recovery tests
// below observe ack-driven behavior instead of timer cascades. cfg sets
// the offload knobs on both hosts.
func fastOffloadTransfer(t *testing.T, fp *FaultPlan, want []byte, tss int, cfg OffloadConfig) (got []byte, r *rig) {
	t.Helper()
	ck := cksum.NewCache(0)
	r = newRig(true, ck, 100*time.Microsecond)
	r.link = NewLink(r.eng, r.client, r.server, 40_000_000_000, 10*time.Microsecond)
	r.server.SetOffloadConfig(true, cfg)
	r.client.SetOffloadConfig(true, cfg)
	if fp != nil {
		r.link.SetFaultPlan(fp)
	}
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true, Tss: tss})
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
	return got, r
}

// TestOffloadHoleRetransmit drops exactly one MSS chunk inside a
// super-segment (judge-order DropList) and pins MSS-granular recovery:
// the receiver accepts the prefix, the partial ack trims it off the
// record, and the retransmission re-sends only the stored pieces covering
// the hole — never the whole super-segment.
func TestOffloadHoleRetransmit(t *testing.T) {
	const chunks = 5
	want := pattern(chunks * MSS)
	fp := &FaultPlan{DropList: []int64{2}} // the 2nd judged chunk
	got, r := fastOffloadTransfer(t, fp, want, 0, OffloadConfig{})
	if !bytes.Equal(got, want) {
		t.Fatalf("hole not recovered: got %d bytes, want %d", len(got), len(want))
	}
	dropped, _ := fp.Stats()
	if dropped != 1 {
		t.Fatalf("DropList dropped %d chunks, want 1", dropped)
	}
	rbytes := r.server.Stats().RetransBytes
	if rbytes == 0 {
		t.Fatal("no retransmission for the dropped chunk")
	}
	// Chunk 1 was accepted and trimmed by the partial ack; the resend
	// covers chunks 2..5 only.
	if wantR := int64((chunks - 1) * MSS); rbytes != wantR {
		t.Fatalf("retransmitted %d bytes, want %d (chunks 2..%d) — whole-super-segment re-send?", rbytes, wantR, chunks)
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("hole recovery leaked %d live pages", live)
	}
}

// TestOffloadDupAckFastRetransmit pins that the dup-ack signal is never
// delayed: two small super-segments in flight, a hole in the first. The
// out-of-order arrival of the second triggers an immediate duplicate ack,
// and fast retransmit fills the hole in one go-back-N round — the first
// record resends only its unacked chunks — well before a timer cascade
// would have (the whole run finishes in well under two RTO periods).
func TestOffloadDupAckFastRetransmit(t *testing.T) {
	cfg := OffloadConfig{SuperSeg: 4 * MSS}
	want := pattern(8 * MSS) // two 4-chunk super-segments in flight
	fp := &FaultPlan{DropList: []int64{2}}
	got, r := fastOffloadTransfer(t, fp, want, 8*MSS, cfg)
	if !bytes.Equal(got, want) {
		t.Fatalf("hole not recovered: got %d bytes, want %d", len(got), len(want))
	}
	segs, rbytes := r.server.Stats().RetransSegs, r.server.Stats().RetransBytes
	if segs != 2 {
		t.Fatalf("fast retransmit resent %d records, want 2 (trimmed head + go-back-N tail)", segs)
	}
	// Record 1 resends chunks 2..4 (the partial ack trimmed chunk 1),
	// record 2 resends whole: 3·MSS + 4·MSS.
	if wantR := int64(7 * MSS); rbytes != wantR {
		t.Fatalf("retransmitted %d bytes, want %d", rbytes, wantR)
	}
	// Exactly one recovery round, and it was dup-ack-driven — the RTO
	// never had to fire.
	if fast := r.server.Stats().FastRetransmits; fast != 1 {
		t.Fatalf("%d dup-ack recovery rounds, want 1 (timer-driven recovery means the dup-ack was delayed)", fast)
	}
}

// TestOffloadLossRecovery runs 1% chunk loss over a 300 KB offloaded
// transfer: every byte arrives, recovery re-sends stored pieces without
// re-charging payload copies, and nothing leaks.
func TestOffloadLossRecovery(t *testing.T) {
	want := pattern(300 << 10)
	cleanGot, cleanCopied, _ := refTransfer(t, nil, want)
	if !bytes.Equal(cleanGot, want) {
		t.Fatal("baseline corrupted")
	}
	got, r := offloadTransfer(t, &FaultPlan{DropProb: 0.01, Seed: 3}, want, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("lossy offload transfer corrupted: got %d bytes, want %d", len(got), len(want))
	}
	segs := r.server.Stats().RetransSegs
	if segs == 0 {
		t.Fatal("1% loss produced no retransmissions")
	}
	if copied := r.costs.Stats().CopiedBytes; copied != cleanCopied {
		t.Fatalf("offload recovery re-charged copies: %d copied bytes vs %d clean", copied, cleanCopied)
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("offload recovery leaked %d live pages", live)
	}
}

// TestOffloadCoalescedShutdownNoLeak abandons a coalesced receive queue
// mid-stream: GRO-merged deliveries waiting in rcvQ must release their
// aggregate references on ShutdownRecv exactly like per-MSS ones.
func TestOffloadCoalescedShutdownNoLeak(t *testing.T) {
	ck := cksum.NewCache(0)
	r := newRig(true, ck, 100*time.Microsecond)
	r.server.SetOffload(true)
	r.client.SetOffload(true)
	want := pattern(200 << 10)
	drained := false
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		end := conn.ClientEnd()
		if d, ok := end.Recv(p); ok {
			d.Release()
		}
		end.ShutdownRecv()
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
		t.Fatal("sender never drained: discarded coalesced deliveries were not acknowledged")
	}
	if live := r.pool.LivePages(); live > mem.PagesPerChunk {
		t.Fatalf("abandoned coalesced deliveries leaked %d live pages", live)
	}
}

// TestOffloadDeterminism pins that offloaded chaos runs replay exactly.
func TestOffloadDeterminism(t *testing.T) {
	want := pattern(128 << 10)
	run := func() (int64, int64, int64) {
		_, r := offloadTransfer(t, &FaultPlan{DropProb: 0.03, Seed: 42}, want, 0)
		d, c := r.link.FaultPlan().Stats()
		segs := r.server.Stats().RetransSegs
		return d, c, segs
	}
	d1, c1, s1 := run()
	d2, c2, s2 := run()
	if d1 != d2 || c1 != c2 || s1 != s2 {
		t.Fatalf("offload chaos not reproducible: (%d,%d,%d) vs (%d,%d,%d)", d1, c1, s1, d2, c2, s2)
	}
}
