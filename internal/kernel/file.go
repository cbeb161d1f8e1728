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
// directly; IOLReadFile layers the user-facing costs on top.
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

// IOLReadFile is the IOL_read path for files (Fig. 2, §3.5): it returns a
// buffer aggregate for [off, off+n) of the file, served from the unified
// cache when possible, and makes the underlying chunks readable in the
// calling process's domain. The caller owns the returned aggregate.
//
// Unlike POSIX read, no data is copied: a hit costs a lookup plus VM grants
// (free in steady state); a miss additionally costs the disk read. The
// snapshot the caller receives stays intact even if the cached extent is
// later replaced by a writer (§3.5).
//
// Deprecated: this is the typed entry point kept for the descriptor layer
// and for callers that manage inodes directly; new code should Open a file
// descriptor and use the generic Machine.IOLRead.
func (m *Machine) IOLReadFile(p *sim.Proc, pr *Process, f *fsim.File, off, n int64) *core.Agg {
	m.syscall(p)
	return m.iolReadFile(p, pr, f, off, n)
}

// iolReadFile is IOLReadFile minus the syscall charge — the form the
// descriptor layer and the submission ring execute behind their own
// boundary crossing.
func (m *Machine) iolReadFile(p *sim.Proc, pr *Process, f *fsim.File, off, n int64) *core.Agg {
	a := m.readCached(p, f, off, n)
	m.Host.Use(p, sim.Duration(a.NumSlices())*m.Costs.AggOp)
	core.Transfer(p, a, pr.Domain)
	return a
}

// IOLReadPool is the §3.4 variant of IOL_read that places the data in
// buffers from a caller-specified allocation pool, for applications
// managing multiple I/O streams with different access-control lists. The
// data is *not* entered into the shared file cache (its ACL is the pool's,
// not the kernel's), so each call reads the backing store.
//
// Deprecated: new code should use OpenWithPool, which yields a descriptor
// whose generic IOLRead takes this path.
func (m *Machine) IOLReadPool(p *sim.Proc, pr *Process, pool *core.Pool, f *fsim.File, off, n int64) *core.Agg {
	m.syscall(p)
	return m.iolReadPool(p, pr, pool, f, off, n)
}

// iolReadPool is IOLReadPool minus the syscall charge.
func (m *Machine) iolReadPool(p *sim.Proc, pr *Process, pool *core.Pool, f *fsim.File, off, n int64) *core.Agg {
	a := m.readPool(p, pool, f, off, n)
	core.Transfer(p, a, pr.Domain)
	return a
}

// readPool is the kernel-internal half of IOLReadPool: the pool-directed
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

// IOLWriteFile is the IOL_write path for files (Fig. 2, §3.5): the
// aggregate's contents replace [off, off+len) of the file. The cache
// entries covering that range are replaced — not overwritten — so
// concurrent readers' snapshots persist. No data copy occurs; the file
// system's write-behind picks the data up by reference.
//
// Deprecated: new code should Open a file descriptor and use the generic
// Machine.IOLWrite.
func (m *Machine) IOLWriteFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, a *core.Agg) {
	m.syscall(p)
	m.iolWriteFile(p, pr, f, off, a)
}

// iolWriteFile is IOLWriteFile minus the syscall charge.
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

// ReadPOSIXFile is the backward-compatible read(2): the kernel obtains the
// data exactly as IOLReadFile would (through the unified cache) and then
// copies it into the application's private buffer (§4.2: "a data copy
// operation is used to move data between application buffers and IO-Lite
// buffers").
//
// Deprecated: new code should Open a file descriptor and use the generic
// Machine.ReadPOSIX.
func (m *Machine) ReadPOSIXFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, dst []byte) int {
	m.syscall(p)
	return m.readPOSIXFile(p, pr, f, off, dst)
}

// readPOSIXFile is ReadPOSIXFile minus the syscall charge.
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

// WritePOSIXFile is the backward-compatible write(2): the application's
// bytes are copied into freshly allocated IO-Lite buffers, then follow the
// IOL_write path.
//
// Deprecated: new code should Open a file descriptor and use the generic
// Machine.WritePOSIX.
func (m *Machine) WritePOSIXFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, src []byte) {
	m.syscall(p)
	m.writePOSIXFile(p, pr, f, off, src)
}

// writePOSIXFile is WritePOSIXFile minus the syscall charge.
func (m *Machine) writePOSIXFile(p *sim.Proc, pr *Process, f *fsim.File, off int64, src []byte) {
	a := core.PackBytes(p, m.FilePool, src) // PackBytes charges the copy
	m.FileCache.InvalidateOverlap(f.ID, off, int64(len(src)))
	m.FileCache.Insert(p, cache.Key{File: f.ID, Off: off, Len: int64(len(src))}, a)
	m.FS.WriteRange(f, off, src)
	a.Release()
}
