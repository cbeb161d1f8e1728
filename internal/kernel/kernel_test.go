package kernel

import (
	"bytes"
	"io"
	"testing"

	"iolite/internal/cache"
	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

func newMachine(cfg Config) (*sim.Engine, *Machine) {
	e := sim.New()
	return e, NewMachine(e, sim.DefaultCosts(), cfg)
}

func run(t *testing.T, e *sim.Engine, body func(p *sim.Proc)) {
	t.Helper()
	e.Go("test", body)
	e.Run()
}

// openT opens name in pr's table, failing the test on error.
func openT(t *testing.T, p *sim.Proc, m *Machine, pr *Process, name string) int {
	t.Helper()
	fd, err := m.Open(p, pr, name)
	if err != nil {
		t.Fatalf("Open %s: %v", name, err)
	}
	return fd
}

// readAt is IOLReadAt that fails the test on error.
func readAt(t *testing.T, p *sim.Proc, m *Machine, pr *Process, fd int, off, n int64) *core.Agg {
	t.Helper()
	a, err := m.IOLReadAt(p, pr, fd, off, n)
	if err != nil {
		t.Fatalf("IOLReadAt(%d, %d): %v", off, n, err)
	}
	return a
}

func TestIOLReadServesCachedSecondRead(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 100<<10)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := openT(t, p, m, pr, "/doc")
		t0 := p.Now()
		a1 := readAt(t, p, m, pr, fd, 0, f.Size())
		coldCost := p.Now().Sub(t0)
		want := m.FS.Expected(f, 0, f.Size())
		if !a1.Equal(want) {
			t.Fatal("IOLRead returned wrong data")
		}
		core.CheckReadable(a1, pr.Domain) // grants happened

		t1 := p.Now()
		a2 := readAt(t, p, m, pr, fd, 0, f.Size())
		hotCost := p.Now().Sub(t1)
		if !a2.Equal(want) {
			t.Fatal("second IOLRead wrong data")
		}
		if hotCost*10 >= coldCost {
			t.Errorf("cache hit cost %v vs miss %v; want ≫10x cheaper", hotCost, coldCost)
		}
		// Physical sharing: both reads reference the same buffers.
		if a1.Slices()[0].Buf != a2.Slices()[0].Buf {
			t.Error("cache hit did not share physical buffers")
		}
		a1.Release()
		a2.Release()
	})
	reads := m.Disk.Stats().Reads
	if reads != 2 {
		t.Fatalf("disk reads = %d, want 2 (Open's metadata read, then one data read)", reads)
	}
}

func TestIOLWriteReplacesAndPreservesSnapshot(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 8192)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := openT(t, p, m, pr, "/doc")
		snap := readAt(t, p, m, pr, fd, 0, 8192)
		before := snap.Materialize()

		// Writer replaces the whole extent with new content (the
		// positional read left the cursor at 0; IOL_write takes wa).
		newData := bytes.Repeat([]byte{0xCD}, 8192)
		if err := m.IOLWrite(p, pr, fd, core.PackBytes(p, pr.Pool, newData)); err != nil {
			t.Fatalf("IOLWrite: %v", err)
		}

		// Snapshot semantics (§3.5).
		if !snap.Equal(before) {
			t.Error("reader snapshot disturbed by IOL_write")
		}
		// New readers see new data, from cache.
		a := readAt(t, p, m, pr, fd, 0, 8192)
		if !a.Equal(newData) {
			t.Error("IOLRead after write returned stale data")
		}
		a.Release()
		snap.Release()

		// The backing store was updated too.
		if !bytes.Equal(m.FS.Expected(f, 0, 8192), newData) {
			t.Error("file contents not persisted")
		}
	})
}

func TestPOSIXReadCopiesAndCosts(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 64<<10)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := openT(t, p, m, pr, "/doc")
		dst := make([]byte, f.Size())
		if _, err := m.ReadPOSIX(p, pr, fd, dst); err != nil { // cold: disk + copy
			t.Fatalf("read(2): %v", err)
		}
		if !bytes.Equal(dst, m.FS.Expected(f, 0, f.Size())) {
			t.Fatal("read(2) returned wrong data")
		}

		// Warm read still pays the copy: that is the POSIX tax IOL_read
		// removes.
		m.Seek(p, pr, fd, 0, io.SeekStart)
		t0 := p.Now()
		m.ReadPOSIX(p, pr, fd, dst)
		warmPOSIX := p.Now().Sub(t0)

		t1 := p.Now()
		a := readAt(t, p, m, pr, fd, 0, f.Size())
		warmIOL := p.Now().Sub(t1)
		a.Release()

		if warmPOSIX <= warmIOL+m.Costs.PriceCopy(int(f.Size()))/2 {
			t.Errorf("warm read(2)=%v, warm IOL_read=%v: copy tax missing", warmPOSIX, warmIOL)
		}
	})
}

func TestWritePOSIXRoundTrip(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 4096)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := openT(t, p, m, pr, "/doc")
		data := bytes.Repeat([]byte{7}, 3000)
		m.Seek(p, pr, fd, 500, io.SeekStart)
		if _, err := m.WritePOSIX(p, pr, fd, data); err != nil {
			t.Fatalf("write(2): %v", err)
		}
		dst := make([]byte, 3000)
		m.Seek(p, pr, fd, 500, io.SeekStart)
		if _, err := m.ReadPOSIX(p, pr, fd, dst); err != nil {
			t.Fatalf("read(2): %v", err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatal("write(2)/read(2) round trip failed")
		}
	})
}

func TestMmapResidencyAndPerDomainMapCost(t *testing.T) {
	e, m := newMachine(Config{})
	f := m.FS.Create("/doc", 256<<10)
	pr1 := m.NewProcess("srv", 1<<20)
	pr2 := m.NewProcess("other", 1<<20)
	run(t, e, func(p *sim.Proc) {
		t0 := p.Now()
		mp := m.Mmap(p, pr1, f)
		coldCost := p.Now().Sub(t0)
		if !bytes.Equal(mp.Bytes(0, f.Size()), m.FS.Expected(f, 0, f.Size())) {
			t.Fatal("mmap content wrong")
		}

		t1 := p.Now()
		m.Mmap(p, pr1, f) // same domain: resident and mapped
		warmSame := p.Now().Sub(t1)

		t2 := p.Now()
		m.Mmap(p, pr2, f) // new domain: map cost, no disk
		warmOther := p.Now().Sub(t2)

		if warmSame >= coldCost/10 {
			t.Errorf("resident remap cost %v vs cold %v", warmSame, coldCost)
		}
		if warmOther <= warmSame {
			t.Error("second domain skipped its page-map cost")
		}
		if m.Mmaps.Pages() != mem.PagesFor(256<<10) {
			t.Errorf("mmap pages = %d", m.Mmaps.Pages())
		}
	})
}

func TestMemoryPressureEvictsFileCache(t *testing.T) {
	// A machine with tiny memory: reading many files must evict older cache
	// entries rather than overcommit.
	e, m := newMachine(Config{MemBytes: 16 << 20, KernelReserveBytes: 4 << 20})
	pr := m.NewProcess("app", 1<<20)
	files := make([]interface{ Size() int64 }, 0)
	_ = files
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			name := "/f" + string(rune('a'+i))
			f := m.FS.Create(name, 1<<20)
			fd := openT(t, p, m, pr, name)
			readAt(t, p, m, pr, fd, 0, f.Size()).Release()
			m.Close(p, pr, fd)
		}
	})
	if m.VM.Overcommitted() != 0 {
		t.Fatalf("overcommit = %d pages", m.VM.Overcommitted())
	}
	evictions := m.FileCache.Stats().Evictions
	if evictions == 0 {
		t.Fatal("no evictions despite 40 MB of reads into ~11 MB of memory")
	}
	if m.VM.PressureRuns() == 0 {
		t.Fatal("pressure chain never ran")
	}
}

func TestMemoryPressureEvictsMmapCache(t *testing.T) {
	e, m := newMachine(Config{MemBytes: 16 << 20, KernelReserveBytes: 4 << 20})
	pr := m.NewProcess("srv", 1<<20)
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			f := m.FS.Create("/m"+string(rune('a'+i)), 1<<20)
			m.Mmap(p, pr, f)
		}
	})
	if m.VM.Overcommitted() != 0 {
		t.Fatalf("overcommit = %d pages", m.VM.Overcommitted())
	}
	if m.Mmaps.Pages() >= 40*mem.PagesFor(1<<20) {
		t.Fatal("mmap cache never shrank")
	}
}

func TestGDSPolicyPluggable(t *testing.T) {
	// IO-Lite's application-specific cache replacement (§3.7): a machine
	// built with GDS must prefer evicting large entries.
	e, m := newMachine(Config{Policy: cache.NewGDS()})
	pr := m.NewProcess("app", 1<<20)
	big := m.FS.Create("/big", 1<<20)
	small := m.FS.Create("/small", 4<<10)
	run(t, e, func(p *sim.Proc) {
		readAt(t, p, m, pr, openT(t, p, m, pr, "/big"), 0, big.Size()).Release()
		readAt(t, p, m, pr, openT(t, p, m, pr, "/small"), 0, small.Size()).Release()
		m.FileCache.EvictOne()
	})
	if m.FileCache.Contains(cache.Key{File: small.ID, Off: 0, Len: small.Size()}) == false {
		t.Fatal("GDS evicted the small entry first")
	}
	if m.FileCache.Contains(cache.Key{File: big.ID, Off: 0, Len: big.Size()}) {
		t.Fatal("GDS kept the big entry")
	}
}

func TestProcessPoolACLIsolation(t *testing.T) {
	// §3.10: separate pools per process; data packed into one process's
	// pool is unreadable elsewhere until transferred.
	e, m := newMachine(Config{})
	cgi := m.NewProcess("cgi", 1<<20)
	srv := m.NewProcess("srv", 1<<20)
	run(t, e, func(p *sim.Proc) {
		a := core.PackBytes(p, cgi.Pool, []byte("dynamic content"))
		func() {
			defer func() {
				if recover() == nil {
					t.Error("server read CGI data without a transfer")
				}
			}()
			core.CheckReadable(a, srv.Domain)
		}()
		core.Transfer(p, a, srv.Domain)
		core.CheckReadable(a, srv.Domain)
		a.Release()
	})
}

func TestRefPipeBetweenProcesses(t *testing.T) {
	e, m := newMachine(Config{})
	cgi := m.NewProcess("cgi", 1<<20)
	srv := m.NewProcess("srv", 1<<20)
	rfd, wfd := m.Pipe2(srv, cgi, ipcsim.ModeRef)
	var got []byte
	e.Go("cgi", func(p *sim.Proc) {
		if err := m.IOLWrite(p, cgi, wfd, core.PackBytes(p, cgi.Pool, []byte("hello over fbuf pipe"))); err != nil {
			t.Errorf("IOLWrite: %v", err)
		}
		m.Close(p, cgi, wfd)
	})
	e.Go("srv", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, srv, rfd, MaxIO)
			if err != nil {
				if err != io.EOF {
					t.Errorf("IOLRead: %v", err)
				}
				return
			}
			core.CheckReadable(a, srv.Domain)
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	e.Run()
	if string(got) != "hello over fbuf pipe" {
		t.Fatalf("got %q", got)
	}
}

func TestProcessExitReleasesMemory(t *testing.T) {
	e, m := newMachine(Config{})
	before := m.VM.UsedBy(mem.TagProc)
	pr := m.NewProcess("tmp", 2<<20)
	if m.VM.UsedBy(mem.TagProc) != before+mem.PagesFor(2<<20) {
		t.Fatal("process memory not reserved")
	}
	pr.Exit()
	if m.VM.UsedBy(mem.TagProc) != before {
		t.Fatal("process memory not released")
	}
	_ = e
}

func TestIOLReadBeyondEOFTruncates(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/short", 1000)
	pr := m.NewProcess("app", 1<<20)
	run(t, e, func(p *sim.Proc) {
		fd := openT(t, p, m, pr, "/short")
		a := readAt(t, p, m, pr, fd, 500, 10000)
		if a.Len() != 500 {
			t.Fatalf("Len = %d, want 500 (IOL_read may return less than asked)", a.Len())
		}
		a.Release()
		if _, err := m.IOLReadAt(p, pr, fd, 1000, 10); err != io.EOF {
			t.Fatalf("read at EOF: err = %v, want io.EOF", err)
		}
	})
}
