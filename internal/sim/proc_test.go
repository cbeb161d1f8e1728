package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// backlog is how many events the allocation tests and benchmarks keep
// pending, so each push and pop works on a heap of realistic depth.
const backlog = 256

// sleeper starts a proc that sleeps 1 µs forever and runs its first
// dispatch, so each later Step is one resume and one park.
func sleeper(e *Engine) {
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	e.Step()
}

// chains schedules backlog self-rescheduling events, chain c every c+1 µs.
func chains(e *Engine) {
	for c := 0; c < backlog; c++ {
		d := Duration(c+1) * Microsecond
		var fire func()
		fire = func() { e.After(d, fire) }
		e.After(d, fire)
	}
}

func TestProcSwitchAllocatesNothing(t *testing.T) {
	e := New()
	defer e.Close()
	sleeper(e)
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("Sleep park/resume: %v allocs, want 0", n)
	}
}

func TestEventFireAllocatesNothing(t *testing.T) {
	e := New()
	chains(e)
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("After and fire with %d pending: %v allocs, want 0", backlog, n)
	}
	if e.Pending() != backlog {
		t.Fatalf("Pending = %d, want %d", e.Pending(), backlog)
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := New()
	defer e.Close()
	e.Go("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	got := func() (r interface{}) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run recovered %v, want the proc's panic", got)
	}
	if e.Running() != nil {
		t.Fatalf("Running = %v after the panic, want engine context", e.Running())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestCloseUnwindsParkedProcs(t *testing.T) {
	g0 := runtime.NumGoroutine()
	e := New()
	var wq WaitQueue
	var unwound []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			wq.Wait(p)
			t.Errorf("%s resumed past Close", name)
		})
	}
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		defer e.Go("spawned-in-teardown", func(p *Proc) { t.Error("a proc started during Close ran") })
		// A defer that blocks unwinds at once instead of parking again.
		defer p.Sleep(time.Second)
		p.Sleep(time.Hour)
	})
	e.Wheel().Schedule(time.Second, func() { t.Error("wheel timer fired after Close") })
	e.RunUntil(Time(time.Millisecond))
	e.Go("unstarted", func(p *Proc) { t.Error("a proc that never ran was started by Close") })

	e.Close()
	if want := "[a b c sleeper]"; fmt.Sprint(unwound) != want {
		t.Errorf("defers ran for %v, want %s in start order", unwound, want)
	}
	if e.LiveProcs() != 0 || e.Pending() != 0 {
		t.Errorf("after Close: %d live procs, %d pending events, want 0 and 0", e.LiveProcs(), e.Pending())
	}
	if g := runtime.NumGoroutine(); g != g0 {
		t.Errorf("goroutines: %d before, %d after Close", g0, g)
	}
	e.Run() // nothing left to run
	e.Close()
}

func TestCloseFromProcPanics(t *testing.T) {
	e := New()
	defer e.Close()
	e.Go("closer", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Close from proc context did not panic")
			}
		}()
		e.Close()
	})
	e.Run()
}

// TestEnginesRunConcurrently runs four engines on their own goroutines
// (run with -race): engines share no state, and each reaches the same
// result.
func TestEnginesRunConcurrently(t *testing.T) {
	results := make([]string, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New()
			defer e.Close()
			var wq WaitQueue
			var order []int
			for w := 0; w < 8; w++ {
				e.Go("waiter", func(p *Proc) {
					p.Sleep(Duration(w) * Microsecond)
					wq.Wait(p)
					order = append(order, w)
				})
			}
			e.Go("waker", func(p *Proc) {
				for wq.Len() > 0 || p.Now() == 0 {
					p.Sleep(10 * Microsecond)
					wq.Wake(3)
				}
			})
			e.Run()
			results[i] = fmt.Sprint(order, e.Now())
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("engine %d: %s, engine 0: %s", i, r, results[0])
		}
	}
}

func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	e := New()
	defer e.Close()
	sleeper(e)
	for b.Loop() {
		e.Step()
	}
}

func BenchmarkEventFire(b *testing.B) {
	b.ReportAllocs()
	e := New()
	chains(e)
	for b.Loop() {
		e.Step()
	}
}

// BenchmarkWheelTimer: one op is one timer scheduled on the shared wheel
// and fired, over backlog self-rescheduling timer chains.
func BenchmarkWheelTimer(b *testing.B) {
	b.ReportAllocs()
	e := New()
	w := e.Wheel()
	fired := 0
	for c := 0; c < backlog; c++ {
		d := Duration(c+1) * 10 * Microsecond
		var fire func()
		fire = func() {
			fired++
			w.Schedule(d, fire)
		}
		w.Schedule(d, fire)
	}
	b.ResetTimer()
	for fired < b.N {
		e.Step()
	}
}
