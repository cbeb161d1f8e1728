package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	at := Time(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Time(1), func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New()
	fired := false
	e.After(10*time.Second, func() { fired = true })
	e.RunUntil(Time(3 * time.Second))
	if fired {
		t.Fatal("future event fired early")
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	e.Run()
	if !fired {
		t.Fatal("event never fired")
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	n := 0
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 2 {
		t.Fatalf("ran %d events after Stop, want 2", n)
	}
	e.Run() // resumes
	if n != 5 {
		t.Fatalf("ran %d events total, want 5", n)
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(42*time.Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcParkUnpark(t *testing.T) {
	e := New()
	var order []string
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		order = append(order, "park")
		p.Park()
		order = append(order, "woken")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "wake")
		waiter.Unpark()
	})
	e.Run()
	want := []string{"park", "wake", "woken"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestUnparkIdempotent(t *testing.T) {
	e := New()
	wakes := 0
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		p.Park()
		wakes++
		p.Sleep(10 * time.Second) // still parked-free when dup wakeups fire
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		waiter.Unpark()
		waiter.Unpark()
		waiter.Unpark()
	})
	e.Run()
	if wakes != 1 {
		t.Fatalf("proc woke %d times, want 1", wakes)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := New()
	var wq WaitQueue
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			wq.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if wq.Len() != 4 {
			t.Errorf("Len = %d, want 4", wq.Len())
		}
		wq.Wake(2)
		p.Sleep(time.Millisecond)
		wq.Wake(-1)
	})
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
	if wq.Len() != 0 {
		t.Fatalf("queue not drained: %d", wq.Len())
	}
}

func TestResourceFIFOSerialization(t *testing.T) {
	e := New()
	cpu := NewResource(e, "cpu")
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			cpu.Use(p, 10*time.Millisecond)
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if got := cpu.BusyTime(); got != 30*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 30ms", got)
	}
	if u := cpu.Utilization(); u < 0.99 || u > 1.0 {
		t.Fatalf("Utilization = %v, want ≈1", u)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := New()
	r := NewResource(e, "disk")
	e.Go("a", func(p *Proc) {
		r.Use(p, 5*time.Millisecond)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(100 * time.Millisecond) // arrive long after r idle
		t0 := p.Now()
		r.Use(p, 5*time.Millisecond)
		if p.Now().Sub(t0) != 5*time.Millisecond {
			t.Errorf("service after idle took %v, want 5ms", p.Now().Sub(t0))
		}
	})
	e.Run()
	if u := r.Utilization(); u > 0.15 {
		t.Fatalf("Utilization = %v, want ≈0.095", u)
	}
}

func TestCostModelArithmetic(t *testing.T) {
	c := DefaultCosts()
	if got := c.Copy(1000); got != time.Duration(1000*c.CopyPSPerByte/1000) {
		t.Fatalf("Copy(1000) = %v", got)
	}
	if c.Copy(0) != 0 || c.Cksum(0) != 0 {
		t.Fatal("zero-byte costs must be zero")
	}
	if c.Copy(1) <= 0 {
		t.Fatal("per-byte copy cost rounds to zero; use picosecond units")
	}
	if c.Cksum(4096) >= c.Copy(4096) {
		t.Fatal("checksum should be cheaper than copy")
	}
	if c.DiskTransfer(1<<20) <= 0 {
		t.Fatal("disk transfer cost missing")
	}
}

func TestNestedGoFromProc(t *testing.T) {
	e := New()
	hits := 0
	e.Go("outer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Go("inner", func(q *Proc) {
			q.Sleep(time.Millisecond)
			hits++
		})
		p.Sleep(5 * time.Millisecond)
		hits++
	})
	e.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}
