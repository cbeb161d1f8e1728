package fsim

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/mem"
	"iolite/internal/sim"
)

func newFS() (*sim.Engine, *FS) {
	e := sim.New()
	c := sim.DefaultCosts()
	vm := mem.NewVM(e, c, 128<<20)
	return e, NewFS(e, c, vm, NewDisk(e, c))
}

func TestDiskTiming(t *testing.T) {
	e := sim.New()
	c := sim.DefaultCosts()
	d := NewDisk(e, c)
	e.Go("r", func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 65536)
		want := c.DiskSeek + c.DiskTransfer(65536)
		if p.Now().Sub(t0) != want {
			t.Errorf("read took %v, want %v", p.Now().Sub(t0), want)
		}
	})
	e.Run()
	reads, br := d.Stats().Reads, d.Stats().BytesRead
	if reads != 1 || br != 65536 {
		t.Fatalf("stats: reads=%d bytes=%d", reads, br)
	}
}

func TestDiskFIFOQueueing(t *testing.T) {
	e := sim.New()
	c := sim.DefaultCosts()
	d := NewDisk(e, c)
	var first, second sim.Time
	e.Go("a", func(p *sim.Proc) { d.Read(p, 4096); first = p.Now() })
	e.Go("b", func(p *sim.Proc) { d.Read(p, 4096); second = p.Now() })
	e.Run()
	per := c.DiskSeek + c.DiskTransfer(4096)
	if first != sim.Time(per) || second != sim.Time(2*per) {
		t.Fatalf("completions %v, %v; want %v, %v", first, second, per, 2*per)
	}
}

func TestSyntheticContentDeterministic(t *testing.T) {
	e, fs := newFS()
	f := fs.Create("/a", 3*mem.PageSize+123)
	g := fs.Create("/b", 3*mem.PageSize+123)
	e.Go("t", func(p *sim.Proc) {
		a1 := make([]byte, 1000)
		a2 := make([]byte, 1000)
		fs.ReadRange(p, f, 5000, a1)
		fs.ReadRange(p, f, 5000, a2)
		if !bytes.Equal(a1, a2) {
			t.Error("same range read twice differs")
		}
		b := make([]byte, 1000)
		fs.ReadRange(p, g, 5000, b)
		if bytes.Equal(a1, b) {
			t.Error("different files share content")
		}
		for _, x := range a1 {
			if x == 0 {
				t.Fatal("synthetic content contains zero bytes")
			}
		}
	})
	e.Run()
}

func TestReadRangeUnaligned(t *testing.T) {
	e, fs := newFS()
	f := fs.Create("/a", 10*mem.PageSize)
	e.Go("t", func(p *sim.Proc) {
		// A large unaligned read equals the concatenation of per-byte reads.
		whole := fs.Expected(f, 0, 3*mem.PageSize)
		part := make([]byte, 5000)
		fs.ReadRange(p, f, 1234, part)
		if !bytes.Equal(part, whole[1234:1234+5000]) {
			t.Error("unaligned read mismatch")
		}
	})
	e.Run()
}

func TestWriteOverlayAndGrowth(t *testing.T) {
	e, fs := newFS()
	f := fs.Create("/a", 2*mem.PageSize)
	e.Go("t", func(p *sim.Proc) {
		before := fs.Expected(f, 0, f.Size())
		data := []byte("the new contents spanning a page boundary ------------------")
		off := int64(mem.PageSize - 20)
		fs.WriteRange(f, off, data)
		after := fs.Expected(f, 0, f.Size())
		if !bytes.Equal(after[:off], before[:off]) {
			t.Error("write disturbed preceding bytes")
		}
		if !bytes.Equal(after[off:off+int64(len(data))], data) {
			t.Error("write content not visible")
		}
		tail := off + int64(len(data))
		if !bytes.Equal(after[tail:], before[tail:]) {
			t.Error("write disturbed following bytes")
		}

		// Extending write grows the file.
		fs.WriteRange(f, f.Size()+100, []byte("xyz"))
		if f.Size() != 2*mem.PageSize+103 {
			t.Errorf("size = %d after extending write", f.Size())
		}
	})
	e.Run()
	writes, bw := fs.Disk().Stats().Writes, fs.Disk().Stats().BytesWritten
	if writes != 2 || bw == 0 {
		t.Fatalf("disk writes=%d bytes=%d", writes, bw)
	}
}

func TestLookupMetadataCosts(t *testing.T) {
	e, fs := newFS()
	fs.Create("/hot", 100)
	e.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		if fs.Lookup(p, "/hot") == nil {
			t.Fatal("lookup failed")
		}
		coldCost := p.Now().Sub(t0)
		t1 := p.Now()
		fs.Lookup(p, "/hot")
		hotCost := p.Now().Sub(t1)
		if hotCost >= coldCost {
			t.Errorf("metadata cache ineffective: cold %v, hot %v", coldCost, hotCost)
		}
		if hotCost != fs.Disk().costs.FileOpen {
			t.Errorf("hot lookup = %v, want open cost only", hotCost)
		}
		if fs.Lookup(p, "/missing") != nil {
			t.Error("lookup invented a file")
		}
	})
	e.Run()
	hits, misses := fs.MetaStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("meta stats %d/%d", hits, misses)
	}
}

func TestReadBeyondEOFPanics(t *testing.T) {
	e, fs := newFS()
	f := fs.Create("/a", 100)
	e.Go("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("read past EOF did not panic")
			}
		}()
		fs.ReadRange(p, f, 50, make([]byte, 51))
	})
	e.Run()
}

func TestDiskUtilizationAndReset(t *testing.T) {
	e := sim.New()
	c := sim.DefaultCosts()
	d := NewDisk(e, c)
	e.Go("t", func(p *sim.Proc) {
		d.Read(p, 1<<20)
		p.Sleep(time.Duration(float64(c.DiskSeek+c.DiskTransfer(1<<20)) * 0.25))
	})
	e.Run()
	if u := d.Utilization(); u < 0.7 || u > 0.9 {
		t.Fatalf("utilization = %v, want ≈0.8", u)
	}
	d.ResetMeters()
	reads := d.Stats().Reads
	if reads != 0 || d.Utilization() != 0 {
		t.Fatal("reset did not clear stats")
	}
}
