package fcgi

import (
	"fmt"
	"testing"

	"iolite/internal/sim"
)

// The subsystem's acceptance test (ISSUE 3): ref-mode fcgi serves M=32
// concurrent requests over N=4 workers with ZERO copy work charged for
// payload bytes — the only copies anywhere in the run are the tiny
// request-direction framing bytes crossing the copy-mode request pipe —
// while copy mode charges at least the full payload volume.

// runRound issues m concurrent requests for docBytes-sized documents and
// returns when all complete, failing the test on any error.
func runRound(t *testing.T, b *bed, pool *WorkerPool, m int, params []byte, docBytes int) {
	t.Helper()
	done := 0
	for i := 0; i < m; i++ {
		b.eng.Go(fmt.Sprintf("round-client%d", i), func(p *sim.Proc) {
			resp, err := pool.Do(p, Request{Params: params})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if resp.Len() != docBytes {
				t.Errorf("response %d bytes, want %d", resp.Len(), docBytes)
			}
			resp.Release()
			done++
		})
	}
	b.eng.Run()
	if done != m {
		t.Fatalf("%d/%d requests completed", done, m)
	}
}

// docServer builds a pool whose handler serves a cached docBytes document
// from the worker's own pool (ref) or private memory (copy) — the
// caching-CGI-program shape of §3.10.
func docServer(b *bed, workers, depth int, ref bool, docBytes int) *WorkerPool {
	aggs := NewAggCache()
	raws := NewRawCache()
	return NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: workers, Depth: depth, Ref: ref, Name: "doc",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			if ref {
				agg := aggs.GetOrPack(p, w, int64(docBytes), func() []byte { return doc(docBytes) })
				req.Reply(p, agg, 0)
				return
			}
			raw := raws.GetOrGen(w, int64(docBytes), func() []byte { return doc(docBytes) })
			req.ReplyBytes(p, raw, 0)
		},
	})
}

func TestAcceptanceRefModeZeroPayloadCopies(t *testing.T) {
	const (
		workers  = 4
		depth    = 8
		M        = workers * depth // 32 concurrent requests
		docBytes = 64 << 10
	)
	params := []byte("/doc")

	b := newBed()
	pool := docServer(b, workers, depth, true, docBytes)

	// Warm round: spreads requests over all four workers, so every
	// worker's document aggregate is built (that first PackBytes is a
	// charged producer copy, outside measurement — steady state, like
	// every experiment here).
	runRound(t, b, pool, M, params, docBytes)

	b.m.Costs.ResetMeters()
	runRound(t, b, pool, M, params, docBytes)
	copied := b.m.Costs.Stats().CopiedBytes

	// Every copied byte is request-direction framing on the copy-mode
	// request pipe: per request, a BEGIN header and a PARAMS header+
	// params payload, each byte copied once into the kernel FIFO and
	// once out. The response path — 32 × 64 KB of payload — charges
	// nothing: headers are generated in place in the sender's pool and
	// payloads are sealed aggregates passed by reference.
	framing := int64(2 * M * (2*HeaderLen + len(params)))
	if copied != framing {
		t.Errorf("ref mode charged %d copied bytes, want exactly %d framing bytes (zero payload)",
			copied, framing)
	}
	if payload := int64(M * docBytes); copied >= payload/100 {
		t.Errorf("framing copies (%d) not ≪ payload volume (%d)", copied, payload)
	}
}

func TestAcceptanceCopyModeChargesPayload(t *testing.T) {
	const (
		workers  = 4
		depth    = 8
		M        = workers * depth
		docBytes = 64 << 10
	)
	b := newBed()
	pool := docServer(b, workers, depth, false, docBytes)
	runRound(t, b, pool, M, []byte("/doc"), docBytes)

	b.m.Costs.ResetMeters()
	runRound(t, b, pool, M, []byte("/doc"), docBytes)
	copied := b.m.Costs.Stats().CopiedBytes

	// The conventional wire format moves every payload byte through the
	// kernel FIFO: at least one copy in and one out per byte.
	if min := int64(2 * M * docBytes); copied < min {
		t.Errorf("copy mode charged %d copied bytes, want ≥ %d (payload in+out)", copied, min)
	}
}

// TestAggCacheDropWakesInKeyOrder retires a worker while sixteen keys are
// mid-pack, each with a second handler parked on the miss: Drop must wake
// the parked handlers in ascending key order, not in map iteration order,
// so runs that retire workers are reproducible. The keys enter the cache
// scrambled, so insertion order cannot pass for key order.
func TestAggCacheDropWakesInKeyOrder(t *testing.T) {
	const n = 16
	b := newBed()
	w := &Worker{Proc: b.m.NewProcess("worker", 4<<20)}
	aggs := NewAggCache()
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 7 % n)
	}
	for _, key := range keys {
		b.eng.Go(fmt.Sprintf("packer%d", key), func(p *sim.Proc) {
			aggs.GetOrPack(p, w, key, func() []byte { return doc(4096) })
		})
	}
	// A woken waiter finds the slot forgotten and packs the key itself,
	// calling gen before it first yields: gen's call order is the wake
	// order.
	var resumed []int64
	for _, key := range keys {
		b.eng.Go(fmt.Sprintf("waiter%d", key), func(p *sim.Proc) {
			aggs.GetOrPack(p, w, key, func() []byte {
				resumed = append(resumed, key)
				return doc(4096)
			})
		})
	}
	b.eng.Go("retire", func(p *sim.Proc) { aggs.Drop(w) })
	b.eng.Run()
	if len(resumed) != n {
		t.Fatalf("%d/%d waiters resumed", len(resumed), n)
	}
	for i, key := range resumed {
		if key != int64(i) {
			t.Fatalf("waiters resumed in key order %v, want ascending", resumed)
		}
	}
}
