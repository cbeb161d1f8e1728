// Package cache implements the IO-Lite unified file cache (§3.5, §3.7): a
// map from ⟨file-id, offset, length⟩ to buffer aggregates holding the
// corresponding file data. The cache has no statically allocated storage —
// entries reference ordinary IO-Lite buffers that applications and the
// network may concurrently reference — and it supports application-specific
// replacement policies (LRU and Greedy-Dual-Size, plus the paper's default
// unified rule).
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/sim"
)

// Key identifies a cached extent.
type Key struct {
	File fsim.FileID
	Off  int64
	Len  int64
}

// Entry is one cache entry: an aggregate holding file data plus replacement
// bookkeeping.
type Entry struct {
	Key Key
	Agg *core.Agg

	// refsHeld counts, per buffer, the references this entry's aggregate
	// holds, so the unified policy can detect external sharing.
	refsHeld map[*core.Buffer]int

	lastUse sim.Time
	prio    float64 // GDS priority
	heapIdx int
	lruPrev *Entry
	lruNext *Entry
}

// Pages estimates the entry's memory footprint in buffer pages.
func (e *Entry) Pages() int {
	pages := 0
	seen := map[*core.Buffer]bool{}
	for _, s := range e.Agg.Slices() {
		if !seen[s.Buf] {
			seen[s.Buf] = true
			pages += s.Buf.Pages()
		}
	}
	return pages
}

// Referenced reports whether any of the entry's buffers is currently
// referenced by something other than this entry — an application, the
// network subsystem, or another cache entry (§3.7 considers such entries
// second-choice victims).
func (e *Entry) Referenced() bool {
	for b, held := range e.refsHeld {
		if b.Refs() > held {
			return true
		}
	}
	return false
}

// Policy is a replacement policy. The cache calls Add/Touch/Remove to keep
// the policy's books; Victim selects and removes the next entry to evict.
type Policy interface {
	Name() string
	Add(e *Entry)
	Touch(e *Entry)
	Remove(e *Entry)
	Victim() *Entry
}

// Cache is the unified file cache.
type Cache struct {
	eng    *sim.Engine
	costs  *sim.CostModel
	policy Policy

	entries map[Key]*Entry

	stats Stats
}

// Stats are the cache's lookup and replacement counters.
type Stats struct {
	// Hits / Misses count lookups, HitBytes / MissBytes their extents.
	Hits, Misses        int64
	HitBytes, MissBytes int64
	Inserts, Evictions  int64
	// Invalidated counts entries an overlapping write dropped.
	Invalidated int64
}

// HitRate reports the fraction of lookups that hit (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// New creates an empty cache with the given replacement policy.
func New(eng *sim.Engine, costs *sim.CostModel, policy Policy) *Cache {
	return &Cache{
		eng:     eng,
		costs:   costs,
		policy:  policy,
		entries: make(map[Key]*Entry),
	}
}

// Policy returns the active replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Len reports the number of entries.
func (c *Cache) Len() int { return len(c.entries) }

// Pages reports the cache's total estimated footprint in pages.
func (c *Cache) Pages() int {
	n := 0
	for _, e := range c.entries {
		n += e.Pages()
	}
	return n
}

// Lookup returns a caller-owned duplicate of the cached aggregate for the
// exact extent, or nil on miss. The duplicate references the same immutable
// buffers (no copy); the caller must Release it.
func (c *Cache) Lookup(p *sim.Proc, k Key) *core.Agg {
	if p != nil {
		p.Sleep(c.costs.CacheLookup)
	}
	e, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		c.stats.MissBytes += k.Len
		return nil
	}
	c.stats.Hits++
	c.stats.HitBytes += k.Len
	e.lastUse = c.eng.Now()
	c.policy.Touch(e)
	return e.Agg.Clone()
}

// Contains reports whether the exact extent is cached, without charging
// costs or touching the policy.
func (c *Cache) Contains(k Key) bool {
	_, ok := c.entries[k]
	return ok
}

// Insert adds (or replaces) the cache entry for k with its own duplicate of
// agg. The caller keeps ownership of agg. Insertion happens on every miss —
// the cache grows until memory pressure evicts (§3.7).
func (c *Cache) Insert(p *sim.Proc, k Key, agg *core.Agg) {
	if int64(agg.Len()) != k.Len {
		panic(fmt.Sprintf("cache: inserting %d bytes under key of %d", agg.Len(), k.Len))
	}
	if old, ok := c.entries[k]; ok {
		c.removeEntry(old)
	}
	dup := agg.Clone()
	e := &Entry{
		Key:      k,
		Agg:      dup,
		refsHeld: make(map[*core.Buffer]int),
		lastUse:  c.eng.Now(),
	}
	for _, s := range dup.Slices() {
		e.refsHeld[s.Buf]++
	}
	c.entries[k] = e
	c.stats.Inserts++
	c.policy.Add(e)
	if p != nil {
		p.Sleep(c.costs.CacheLookup)
	}
}

// removeEntry drops e from the map and policy and releases its buffers.
// Buffers still referenced elsewhere persist — that is what preserves
// IOL_read snapshot semantics across replacement (§3.5).
func (c *Cache) removeEntry(e *Entry) {
	delete(c.entries, e.Key)
	c.policy.Remove(e)
	e.Agg.Release()
}

// InvalidateOverlap removes every entry of the file overlapping
// [off, off+n): an IOL_write replaces the corresponding buffers in the cache
// (§3.5). It returns how many entries were dropped.
func (c *Cache) InvalidateOverlap(file fsim.FileID, off, n int64) int {
	var hit []Key
	for k := range c.entries {
		if k.File == file && off < k.Off+k.Len && k.Off < off+n {
			hit = append(hit, k)
		}
	}
	// Release in key order: which buffers return to their pool first
	// must not depend on map iteration order.
	slices.SortFunc(hit, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.Off, b.Off), cmp.Compare(a.Len, b.Len))
	})
	for _, k := range hit {
		c.removeEntry(c.entries[k])
		c.stats.Invalidated++
	}
	return len(hit)
}

// EvictOne evicts the policy's chosen victim and returns its estimated page
// count (0 if the cache is empty). Freed pages become reclaimable once the
// buffers' other references drain and the owning pool is trimmed.
func (c *Cache) EvictOne() int {
	e := c.policy.Victim()
	if e == nil {
		return 0
	}
	pages := e.Pages()
	delete(c.entries, e.Key)
	c.stats.Evictions++
	e.Agg.Release()
	return pages
}

// EvictPages evicts entries until approximately pages pages are released or
// the cache empties, returning the estimate actually freed.
func (c *Cache) EvictPages(pages int) int {
	freed := 0
	for freed < pages {
		n := c.EvictOne()
		if n == 0 && c.Len() == 0 {
			break
		}
		freed += n
	}
	return freed
}

// Clear evicts everything.
func (c *Cache) Clear() {
	for c.Len() > 0 {
		if c.EvictOne() == 0 && c.Len() > 0 {
			// Defensive: zero-page entries still count as evicted.
			continue
		}
	}
}

// Stats returns the lookup and replacement counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetMeters zeroes the counters (cache contents stay).
func (c *Cache) ResetMeters() { c.stats = Stats{} }
