package netsim

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/sim"
)

// TestCorkGathersMixedRefAndCopyItems corks three adjacent sends — copy,
// reference, copy — into ONE wire segment. The receiver still sees three
// deliveries with each sender's representation intact: the ref piece keeps
// its buffer identity (zero copy), the copy pieces arrive as bytes.
func TestCorkGathersMixedRefAndCopyItems(t *testing.T) {
	r := newRig(true, nil, time.Millisecond)
	hdr := pattern(100)
	doc := pattern(400)
	trailer := pattern(30)
	var deliveries []Delivery
	var srcIDs map[uint64]bool
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		total := 0
		for total < len(hdr)+len(doc)+len(trailer) {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				break
			}
			total += d.Len()
			deliveries = append(deliveries, d)
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		agg := core.PackBytes(p, r.pool, doc)
		srcIDs = map[uint64]bool{}
		for _, s := range agg.Slices() {
			srcIDs[s.Buf.ID()] = true
		}
		ep.SetCork(true)
		ep.Send(p, Payload{Data: hdr}, nil)
		ep.Send(p, Payload{Agg: agg}, nil)
		ep.Send(p, Payload{Data: trailer}, nil)
		ep.SetCork(false)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()

	pktsOut, bytesOut := r.server.Stats().PktsOut, r.server.Stats().BytesOut
	if pktsOut != 1 {
		t.Fatalf("three corked sub-MSS sends used %d segments, want 1", pktsOut)
	}
	if want := int64(len(hdr) + len(doc) + len(trailer)); bytesOut != want {
		t.Fatalf("bytesOut = %d, want %d", bytesOut, want)
	}
	if len(deliveries) != 3 {
		t.Fatalf("one gathered segment delivered %d pieces, want 3 (per-item identity)", len(deliveries))
	}
	if deliveries[0].Agg != nil || !bytes.Equal(deliveries[0].Data, hdr) {
		t.Error("copy piece 0 lost its representation or bytes")
	}
	if deliveries[1].Agg == nil {
		t.Fatal("ref piece arrived as copied data")
	}
	for _, s := range deliveries[1].Agg.Slices() {
		if !srcIDs[s.Buf.ID()] {
			t.Fatal("ref piece was copied in flight: buffer identity lost")
		}
	}
	if !deliveries[1].Agg.Equal(doc) {
		t.Error("ref piece corrupted")
	}
	if deliveries[2].Agg != nil || !bytes.Equal(deliveries[2].Data, trailer) {
		t.Error("copy piece 2 lost its representation or bytes")
	}
	for _, d := range deliveries {
		d.Release()
	}
}

// TestCorkDoneOrderingOneSegmentManyItems completes several send items
// with one gathered segment: every item's done callback fires on that
// segment's ack, in admission order.
func TestCorkDoneOrderingOneSegmentManyItems(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	var order []int
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		collect(p, conn.ClientEnd(), 300)
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.SetCork(true)
		for i := 0; i < 3; i++ {
			i := i
			ep.Send(p, Payload{Data: pattern(100)}, func() { order = append(order, i) })
		}
		ep.SetCork(false)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	pktsOut := r.server.Stats().PktsOut
	if pktsOut != 1 {
		t.Fatalf("corked items used %d segments, want 1", pktsOut)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("done callbacks fired as %v, want [0 1 2] on the one ack", order)
	}
}

// TestFINOnlyAfterCorkedDataDrains closes an endpoint that is still
// corked with a held sub-MSS tail: Close must flush the tail and the peer
// must see every byte before the end of stream — the FIN never overtakes
// corked data.
func TestFINOnlyAfterCorkedDataDrains(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	want := pattern(900)
	var got []byte
	eof := false
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		for {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				eof = true
				return
			}
			got = append(got, d.Bytes()...)
			d.Release()
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.SetCork(true)
		ep.Send(p, Payload{Data: want}, nil)
		// Close without ever uncorking: the held tail must still drain.
		ep.Close(p)
	})
	r.eng.Run()
	if !eof {
		t.Fatal("no end of stream after Close")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes before FIN, want %d (FIN overtook corked data)", len(got), len(want))
	}
}

// TestCorkedRefSegmentsHitChecksumCache sends the same pair of small
// sealed aggregates twice, corked into gathered segments: the second
// round's per-piece checksums must come from the §3.9 cache — gathering
// keeps slice identities stable, so coalescing never costs cache hits.
func TestCorkedRefSegmentsHitChecksumCache(t *testing.T) {
	ck := cksum.NewCache(0)
	r := newRig(true, ck, time.Millisecond)
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{ServerRefMode: true})
		collect(p, conn.ClientEnd(), 2*600)
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		a := core.PackBytes(p, r.pool, pattern(200))
		b := core.PackBytes(p, r.pool, pattern(400))
		for round := 0; round < 2; round++ {
			ep.SetCork(true)
			ep.Send(p, Payload{Agg: a.Clone()}, nil)
			ep.Send(p, Payload{Agg: b.Clone()}, nil)
			ep.SetCork(false)
			ep.Drain(p)
		}
		a.Release()
		b.Release()
		ep.Close(p)
	})
	r.eng.Run()
	pktsOut := r.server.Stats().PktsOut
	if pktsOut != 2 {
		t.Fatalf("two corked rounds used %d segments, want 2", pktsOut)
	}
	cs := ck.Stats()
	hits, hitBytes, missBytes := cs.Hits, cs.HitBytes, cs.MissBytes
	if hits < 2 || hitBytes < 600 {
		t.Fatalf("round 2 hit the cache %d times / %d bytes, want every gathered piece (≥2 / ≥600)",
			hits, hitBytes)
	}
	if missBytes != 600 {
		t.Fatalf("missBytes = %d, want exactly 600 (round 1 only: stable slice keys)", missBytes)
	}
}

// TestCorkYieldsUnderFullWindow pins the buffer-pressure escape: an
// explicitly corked sender whose payload overflows a tiny send window
// (smaller than one MSS) must still make progress — the cork yields when
// the window is full with nothing in flight, because the blocked Send can
// never reach its uncork. Without the escape this deadlocks.
func TestCorkYieldsUnderFullWindow(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	want := pattern(4 << 10)
	var got []byte
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{Tss: 1024})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.SetCork(true)
		ep.Send(p, Payload{Data: want}, nil) // blocks on the 1 KB window
		ep.SetCork(false)
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want %d (corked sender wedged on a sub-MSS window)", len(got), len(want))
	}
}

// TestDrainPushesCorkedTail pins Drain's push-point contract: draining an
// endpoint whose explicit cork holds a sub-MSS tail (nothing in flight)
// flushes the tail instead of wedging, and the cork itself survives the
// drain for the next burst.
func TestDrainPushesCorkedTail(t *testing.T) {
	r := newRig(false, nil, time.Millisecond)
	want := pattern(700)
	var got []byte
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{})
		got = collect(p, conn.ClientEnd(), len(want))
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		ep.SetCork(true)
		ep.Send(p, Payload{Data: want}, nil)
		ep.Drain(p) // must push the held tail, not hang
		if !ep.Corked() {
			t.Error("Drain removed the explicit cork")
		}
		ep.Close(p)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want %d (Drain wedged on the corked tail)", len(got), len(want))
	}
}

// TestNagleCoalescesWindowStarvedStream drives a long stream of small
// writes through a tiny send window. Auto-cork (hold a sub-MSS tail while
// segments are unacknowledged) must re-assemble the trickling admission
// into essentially full segments instead of one packet per admitted piece.
func TestNagleCoalescesWindowStarvedStream(t *testing.T) {
	r := newRig(false, nil, 500*time.Microsecond)
	const chunk = 2000
	const chunks = 100
	const total = chunk * chunks
	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{Tss: 8 << 10})
		collect(p, conn.ClientEnd(), total)
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		for i := 0; i < chunks; i++ {
			ep.Send(p, Payload{Data: pattern(chunk)}, nil)
		}
		ep.Drain(p)
		ep.Close(p)
	})
	r.eng.Run()
	pktsOut, bytesOut := r.server.Stats().PktsOut, r.server.Stats().BytesOut
	if bytesOut != total {
		t.Fatalf("bytesOut = %d, want %d", bytesOut, total)
	}
	ideal := int64((total + MSS - 1) / MSS)
	if pktsOut > ideal+ideal/10 {
		t.Fatalf("window-starved stream used %d segments, want ≈%d (sub-MSS fragmentation)", pktsOut, ideal)
	}
	if fill := r.server.MeanSegFill(); fill < 0.85 {
		t.Fatalf("mean segment fill %.2f, want ≥0.85", fill)
	}
}
