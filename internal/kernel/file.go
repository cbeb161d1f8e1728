package kernel

import (
	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// loadExtent brings [off, off+n) of f into IO-Lite buffers with one
// sequential disk read, sealing them. Data lands in page-aligned
// chunk-sized buffers of the kernel file pool; the disk DMA engine fills
// buffers, so no CPU copy is charged.
func (m *Machine) loadExtent(p *sim.Proc, f *fsim.File, off, n int64) *core.Agg {
	content := make([]byte, n)
	m.FS.ReadRange(p, f, off, content) // one positioning + sequential transfer
	a := core.NewAgg()
	for got := int64(0); got < n; {
		take := int64(mem.ChunkSize)
		if take > n-got {
			take = n - got
		}
		b := m.FilePool.Alloc(p, int(take))
		b.Write(0, content[got:got+take])
		b.Seal()
		a.Append(core.Slice{Buf: b, Off: 0, Len: int(take)}) // aggregate retains
		b.Release()                                          // drop the allocation reference
		got += take
	}
	return a
}

// readCached returns a caller-owned aggregate for [off, off+n) of f served
// through the unified cache — the kernel-internal half of IOL_read, with no
// user-domain grant and no per-slice boundary work. The splice path uses it
// directly; iolReadFile layers the user-facing costs on top.
func (m *Machine) readCached(p *sim.Proc, f *fsim.File, off, n int64) *core.Agg {
	if off+n > f.Size() {
		n = f.Size() - off
	}
	if n <= 0 {
		return core.NewAgg()
	}
	k := cache.Key{File: f.ID, Off: off, Len: n}
	a := m.FileCache.Lookup(p, k)
	if a == nil {
		a = m.loadExtent(p, f, off, n)
		m.FileCache.Insert(p, k, a)
	}
	return a
}

// iolReadFile is the IOL_read path for files (Fig. 2, §3.5) behind the
// descriptor layer's and the submission ring's boundary crossing: a
// buffer aggregate for [off, off+n) of the file, served from the unified
// cache when possible, with the underlying chunks made readable in the
// calling process's domain. The caller owns the returned aggregate.
//
// Unlike POSIX read, no data is copied: a hit costs a lookup plus VM grants
// (free in steady state); a miss additionally costs the disk read. The
// snapshot the caller receives stays intact even if the cached extent is
// later replaced by a writer (§3.5).
func (m *Machine) iolReadFile(p *sim.Proc, pr *Process, f *fsim.File, off, n int64) *core.Agg {
	a := m.readCached(p, f, off, n)
	m.Host.Use(p, sim.Duration(a.NumSlices())*m.Costs.AggOp)
	core.Transfer(p, a, pr.Domain)
	return a
}

// iolReadPool is the §3.4 variant of IOL_read that places the data in
// buffers from a caller-specified allocation pool (OpenWithPool), for
// applications managing multiple I/O streams with different
// access-control lists. The data is *not* entered into the shared file
// cache (its ACL is the pool's, not the kernel's), so each call reads the
// backing store.
func (m *Machine) iolReadPool(p *sim.Proc, pr *Process, pool *core.Pool, f *fsim.File, off, n int64) *core.Agg {
	a := m.readPool(p, pool, f, off, n)
	core.Transfer(p, a, pr.Domain)
	return a
}

// readPool is the kernel-internal half of iolReadPool: the pool-directed
// read without the user-domain grant.
func (m *Machine) readPool(p *sim.Proc, pool *core.Pool, f *fsim.File, off, n int64) *core.Agg {
	if off+n > f.Size() {
		n = f.Size() - off
	}
	if n <= 0 {
		return core.NewAgg()
	}
	content := make([]byte, n)
	m.FS.ReadRange(p, f, off, content)
	a := core.NewAgg()
	for got := int64(0); got < n; {
		take := int64(mem.ChunkSize)
		if take > n-got {
			take = n - got
		}
		b := pool.Alloc(p, int(take))
		b.Write(0, content[got:got+take])
		b.Seal()
		a.Append(core.Slice{Buf: b, Off: 0, Len: int(take)})
		b.Release()
		got += take
	}
	return a
}

// iolWriteFile is the IOL_write path for files (Fig. 2, §3.5): the
// aggregate's contents replace [off, off+len) of the file. The cache
// entries covering that range are replaced — not overwritten — so
// concurrent readers' snapshots persist. No data copy occurs; the file
// system's write-behind picks the data up by reference.
func (m *Machine) iolWriteFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, a *core.Agg) {
	core.CheckReadable(a, pr.Domain) // writer must itself have access
	n := int64(a.Len())
	m.Host.Use(p, sim.Duration(a.NumSlices())*m.Costs.AggOp)
	m.FileCache.InvalidateOverlap(f.ID, off, n)
	m.FileCache.Insert(p, cache.Key{File: f.ID, Off: off, Len: n}, a)
	core.Transfer(p, a, m.KernelDomain)
	// Write-behind to the backing store; DMA, no CPU copy charged.
	m.FS.WriteRange(f, off, a.Materialize())
}

// PrewarmUnified loads files into the unified file cache without charging
// simulated time, stopping when free memory falls below keepFreePages.
// Experiments use it to start measurement from the steady state a long
// warmup would reach (the paper measures one-hour runs; the cache contents
// at steady state are the most popular documents).
func (m *Machine) PrewarmUnified(files []*fsim.File, keepFreePages int) int {
	loaded := 0
	for _, f := range files {
		if m.VM.FreePages() < keepFreePages+mem.PagesFor(int(f.Size())) {
			break
		}
		k := cache.Key{File: f.ID, Off: 0, Len: f.Size()}
		if m.FileCache.Contains(k) {
			continue
		}
		a := m.loadExtent(nil, f, 0, f.Size())
		m.FileCache.Insert(nil, k, a)
		a.Release()
		loaded++
	}
	return loaded
}

// PrewarmMmap is PrewarmUnified for the conventional VM file cache that
// mmap-based servers (Flash, Apache) serve from.
func (m *Machine) PrewarmMmap(pr *Process, files []*fsim.File, keepFreePages int) int {
	loaded := 0
	for _, f := range files {
		if m.VM.FreePages() < keepFreePages+mem.PagesFor(int(f.Size())) {
			break
		}
		if m.Mmaps.Resident(f.ID) {
			continue
		}
		m.prewarmMmapFile(pr, f)
		loaded++
	}
	return loaded
}

// prewarmMmapFile loads one file resident without charging time.
func (m *Machine) prewarmMmapFile(pr *Process, f *fsim.File) {
	mc := m.Mmaps
	pages := mem.PagesFor(int(f.Size()))
	m.VM.Reserve(mem.TagMmap, pages)
	data := make([]byte, f.Size())
	m.FS.ReadRange(nil, f, 0, data)
	e := &MmapEntry{file: f, data: data, pages: pages, mapped: map[*mem.Domain]bool{pr.Domain: true}}
	mc.entries[f.ID] = e
	mc.pushFront(e)
}

// readPOSIXFile is the backward-compatible read(2) for files: the kernel
// obtains the data exactly as iolReadFile would (through the unified
// cache) and then copies it into the application's private buffer (§4.2:
// "a data copy operation is used to move data between application buffers
// and IO-Lite buffers").
func (m *Machine) readPOSIXFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, dst []byte) int {
	n := int64(len(dst))
	if off+n > f.Size() {
		n = f.Size() - off
	}
	if n <= 0 {
		return 0
	}
	a := m.readCached(p, f, off, n)
	a.ReadAt(dst[:n], 0)
	m.Host.Use(p, m.Costs.Copy(int(n)))
	a.Release()
	return int(n)
}

// writePOSIXFile is the backward-compatible write(2) for files: the
// application's bytes are copied into freshly allocated IO-Lite buffers,
// then follow the IOL_write path.
func (m *Machine) writePOSIXFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, src []byte) {
	a := core.PackBytes(p, m.FilePool, src) // PackBytes charges the copy
	m.FileCache.InvalidateOverlap(f.ID, off, int64(len(src)))
	m.FileCache.Insert(p, cache.Key{File: f.ID, Off: off, Len: int64(len(src))}, a)
	m.FS.WriteRange(f, off, src)
	a.Release()
}
