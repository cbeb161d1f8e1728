package fcgi

import (
	"maps"
	"slices"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// AggCache is the caching-CGI-program pattern (§3.10) as a reusable
// piece: per-worker sealed document aggregates, keyed by the app's
// choice of int64 (a size, a hash). Each worker's documents live in its
// own pool, so the ACL isolation between workers comes for free; repeat
// requests reuse the same immutable buffers, keeping downstream
// checksums cached.
//
// GetOrPack is safe against the mux's intra-worker concurrency: packing
// yields (allocation and producer-copy charges), so concurrent handlers
// for the same new key pile up on the miss. Misses are single-flight —
// the first handler packs, the rest wait on the slot — because a losing
// duplicate pack is not merely wasted charge: pack-buffer space is
// append-only, so a burst of duplicates (a whole mux depth arriving in
// one coalesced receive event) permanently consumes pool chunks that the
// cached document then pins for the worker's lifetime.
type AggCache struct {
	docs    map[*Worker]map[int64]*core.Agg
	filling map[*Worker]map[int64]*sim.WaitQueue
}

// NewAggCache returns an empty cache.
func NewAggCache() *AggCache {
	return &AggCache{
		docs:    make(map[*Worker]map[int64]*core.Agg),
		filling: make(map[*Worker]map[int64]*sim.WaitQueue),
	}
}

// GetOrPack returns the cached aggregate for key in w's pool, packing
// gen()'s bytes on a miss. The cache owns the returned reference;
// callers Clone (or Reply, which clones) to send it.
func (c *AggCache) GetOrPack(p *sim.Proc, w *Worker, key int64, gen func() []byte) *core.Agg {
	docs := c.docs[w]
	if docs == nil {
		docs = make(map[int64]*core.Agg)
		c.docs[w] = docs
	}
	for {
		if agg, ok := docs[key]; ok {
			return agg
		}
		fq := c.filling[w][key]
		if fq == nil {
			break
		}
		// Another handler is mid-pack for this key: wait for it rather
		// than packing a duplicate, then re-check (the packer may have
		// been retired with its worker instead of filling the slot).
		fq.Wait(p)
	}
	fills := c.filling[w]
	if fills == nil {
		fills = make(map[int64]*sim.WaitQueue)
		c.filling[w] = fills
	}
	fq := &sim.WaitQueue{}
	fills[key] = fq
	fresh := core.PackBytes(p, w.Proc.Pool, gen())
	docs[key] = fresh
	delete(fills, key)
	fq.Wake(-1)
	return fresh
}

// Drop releases every aggregate cached for w and forgets the worker —
// hook it to PoolConfig.OnRetire, or a respawned worker's predecessor
// keeps its sealed documents pinned in the dead process's pool forever.
func (c *AggCache) Drop(w *Worker) {
	// Ascending key order, not map order, for both loops: release order
	// reaches the pool free lists and wake order decides which waiter
	// runs first, so both must be deterministic.
	docs := c.docs[w]
	for _, key := range slices.Sorted(maps.Keys(docs)) {
		docs[key].Release()
	}
	delete(c.docs, w)
	// Wake anything parked on an in-flight pack; the packer still fills
	// its (now-forgotten) slot, and woken waiters find it there.
	fills := c.filling[w]
	for _, key := range slices.Sorted(maps.Keys(fills)) {
		fills[key].Wake(-1)
	}
	delete(c.filling, w)
}

// RawCache is AggCache's conventional sibling: per-worker documents as
// plain private bytes (the baseline FastCGI program's shape — no
// refcounts, no ACLs, every send copies). Concurrent misses are benign
// here (a duplicate []byte is garbage-collected), so GetOrGen only keeps
// the lookup-and-fill pattern in one place.
type RawCache struct {
	docs map[*Worker]map[int64][]byte
}

// NewRawCache returns an empty cache.
func NewRawCache() *RawCache {
	return &RawCache{docs: make(map[*Worker]map[int64][]byte)}
}

// Drop forgets w's documents (the bytes are plain garbage-collected
// memory; this just keeps the map from growing across respawns).
func (c *RawCache) Drop(w *Worker) { delete(c.docs, w) }

// GetOrGen returns the cached bytes for key in w's cache, generating
// them on a miss.
func (c *RawCache) GetOrGen(w *Worker, key int64, gen func() []byte) []byte {
	docs := c.docs[w]
	if docs == nil {
		docs = make(map[int64][]byte)
		c.docs[w] = docs
	}
	if raw, ok := docs[key]; ok {
		return raw
	}
	raw := gen()
	docs[key] = raw
	return raw
}
