package ipcsim

import (
	"bytes"
	"testing"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

type env struct {
	eng   *sim.Engine
	costs *sim.CostModel
	vm    *mem.VM
	cpu   *sim.Resource
	kern  *mem.Domain
	prodD *mem.Domain
	consD *mem.Domain
	pool  *core.Pool
}

func newEnv() *env {
	e := sim.New()
	c := sim.DefaultCosts()
	vm := mem.NewVM(e, c, 128<<20)
	kern := vm.NewDomain("kernel", true)
	prod := vm.NewDomain("producer", false)
	cons := vm.NewDomain("consumer", false)
	return &env{
		eng:   e,
		costs: c,
		vm:    vm,
		cpu:   sim.NewResource(e, "cpu"),
		kern:  kern,
		prodD: prod,
		consD: cons,
		pool:  core.NewPool(vm, prod, "producer"),
	}
}

func pat(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*31 + 5)
	}
	return d
}

func TestCopyPipeEndToEnd(t *testing.T) {
	ev := newEnv()
	pp := New(ev.eng, ev.costs, ev.cpu, ev.vm, ModeCopy, ev.consD)
	want := pat(300 << 10) // forces many capacity-bounded rounds
	var got []byte
	ev.eng.Go("writer", func(p *sim.Proc) {
		pp.Write(p, want)
		pp.CloseWrite(p)
	})
	ev.eng.Go("reader", func(p *sim.Proc) {
		dst := make([]byte, 8192)
		for {
			n := pp.Read(p, dst)
			if n == 0 {
				return
			}
			got = append(got, dst[:n]...)
		}
	})
	ev.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("pipe corrupted data: %d vs %d bytes", len(got), len(want))
	}
	moved, copied, switches := pp.Stats()
	if moved != int64(len(want)) {
		t.Errorf("moved = %d", moved)
	}
	if copied != 2*int64(len(want)) {
		t.Errorf("copied = %d, want 2x payload (in + out)", copied)
	}
	if switches == 0 {
		t.Error("no context switches recorded despite blocking")
	}
	if ev.vm.UsedBy(mem.TagSockBuf) != 0 {
		t.Error("kernel pipe buffer pages leaked")
	}
}

func TestRefPipeZeroCopyAndGrants(t *testing.T) {
	ev := newEnv()
	pp := New(ev.eng, ev.costs, ev.cpu, ev.vm, ModeRef, ev.consD)
	want := pat(200 << 10)
	var got []byte
	var srcID uint64
	var sameBuf bool
	ev.eng.Go("writer", func(p *sim.Proc) {
		agg := core.PackBytes(p, ev.pool, want)
		srcID = agg.Slices()[0].Buf.ID()
		pp.PutAgg(p, agg)
		pp.CloseWrite(p)
	})
	ev.eng.Go("reader", func(p *sim.Proc) {
		for {
			a := pp.TakeAgg(p)
			if a == nil {
				return
			}
			// Consumer's domain must be able to read (grant happened).
			core.CheckReadable(a, ev.consD)
			sameBuf = a.Slices()[0].Buf.ID() == srcID
			got = append(got, a.Materialize()...)
			a.Release()
		}
	})
	ev.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("ref pipe corrupted data")
	}
	if !sameBuf {
		t.Error("reader did not receive the producer's physical buffer")
	}
	_, copied, _ := pp.Stats()
	if copied != 0 {
		t.Errorf("ref pipe copied %d bytes, want 0", copied)
	}
}

func TestRefPipeCheaperThanCopyPipe(t *testing.T) {
	// The Figure 5/13 economics: moving N bytes through an IO-Lite pipe
	// must cost much less CPU than through a copy pipe.
	const n = 256 << 10
	elapsed := func(mode Mode) sim.Duration {
		ev := newEnv()
		pp := New(ev.eng, ev.costs, ev.cpu, ev.vm, mode, ev.consD)
		var doneAt sim.Time
		ev.eng.Go("writer", func(p *sim.Proc) {
			if mode == ModeCopy {
				pp.Write(p, pat(n))
			} else {
				pp.PutAgg(p, core.PackBytes(nil, ev.pool, pat(n)))
			}
			pp.CloseWrite(p)
		})
		ev.eng.Go("reader", func(p *sim.Proc) {
			if mode == ModeCopy {
				dst := make([]byte, 16384)
				for pp.Read(p, dst) != 0 {
				}
			} else {
				for {
					a := pp.TakeAgg(p)
					if a == nil {
						break
					}
					a.Release()
				}
			}
			doneAt = p.Now()
		})
		ev.eng.Run()
		return sim.Duration(doneAt)
	}
	copyTime := elapsed(ModeCopy)
	refTime := elapsed(ModeRef)
	if refTime*2 >= copyTime {
		t.Fatalf("ref pipe (%v) not ≥2x cheaper than copy pipe (%v)", refTime, copyTime)
	}
}

func TestCopyPipeBlocksAtCapacity(t *testing.T) {
	ev := newEnv()
	pp := New(ev.eng, ev.costs, ev.cpu, ev.vm, ModeCopy, ev.consD)
	writerDone := false
	ev.eng.Go("writer", func(p *sim.Proc) {
		pp.Write(p, pat(CapDefault+1)) // one byte over capacity
		writerDone = true
	})
	ev.eng.Run() // no reader: writer must still be blocked
	if writerDone {
		t.Fatal("writer completed past pipe capacity with no reader")
	}
	if ev.eng.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want the blocked writer", ev.eng.LiveProcs())
	}
}

func TestPipeEOFOnlyAfterDrain(t *testing.T) {
	ev := newEnv()
	pp := New(ev.eng, ev.costs, ev.cpu, ev.vm, ModeCopy, ev.consD)
	var reads []int
	ev.eng.Go("writer", func(p *sim.Proc) {
		pp.Write(p, pat(100))
		pp.CloseWrite(p)
	})
	ev.eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(1e6) // let writer close first
		dst := make([]byte, 64)
		for {
			n := pp.Read(p, dst)
			reads = append(reads, n)
			if n == 0 {
				return
			}
		}
	})
	ev.eng.Run()
	if len(reads) < 2 || reads[len(reads)-1] != 0 {
		t.Fatalf("reads = %v, want data then EOF", reads)
	}
	total := 0
	for _, n := range reads {
		total += n
	}
	if total != 100 {
		t.Fatalf("read %d bytes, want 100", total)
	}
}

func TestModeMismatchPanics(t *testing.T) {
	ev := newEnv()
	cp := New(ev.eng, ev.costs, ev.cpu, ev.vm, ModeCopy, ev.consD)
	rp := New(ev.eng, ev.costs, ev.cpu, ev.vm, ModeRef, ev.consD)
	ev.eng.Go("t", func(p *sim.Proc) {
		for _, f := range []func(){
			func() { cp.PutAgg(p, nil) },
			func() { cp.TakeAgg(p) },
			func() { rp.Write(p, []byte("x")) },
			func() { rp.Read(p, make([]byte, 1)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("mode mismatch did not panic")
					}
				}()
				f()
			}()
		}
	})
	ev.eng.Run()
}
