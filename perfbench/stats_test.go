package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"iolite/internal/sim"
)

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(med-c.med) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestMidMean(t *testing.T) {
	if got := midMean([]float64{100, 1, 2, 3, 4, 5, 6, -100}); got != 3.5 {
		t.Errorf("midMean drops a quarter from each end: got %v, want 3.5", got)
	}
	if got := midMean([]float64{7}); got != 7 {
		t.Errorf("midMean of one value = %v, want 7", got)
	}
}

func TestPkgGroup(t *testing.T) {
	for sym, want := range map[string]string{
		"iolite/internal/sim.(*Engine).Step":      "sim",
		"iolite/internal/netsim.(*Host).pump":     "netsim",
		"iolite/internal/experiments.RunWeb":      "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"container/heap.up":                       "heap",
		"sync.(*Mutex).Lock":                      "other",
		"main.benchSwitch":                        "other",
	} {
		if got := pkgGroup(sym); got != want {
			t.Errorf("pkgGroup(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestSelfByPackage profiles the simulator's proc switch and checks the
// decoded self times: they add up to the profiled CPU time, and the
// runtime and sim packages show up.
func TestSelfByPackage(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		e := sim.New()
		e.Go("p", func(p *sim.Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		e.Run()
	}
	pprof.StopCPUProfile()
	self, err := selfByPackage(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, ns := range self {
		sum += ns
	}
	// Profiling at 100 Hz for 300 ms samples about 30 × 10 ms.
	if sum < float64(100*time.Millisecond) || sum > float64(time.Second) {
		t.Errorf("profile holds %v of CPU samples, want about 300ms: %v", time.Duration(sum), self)
	}
	if self["runtime"] == 0 || self["sim"]+self["heap"] == 0 {
		t.Errorf("expected runtime and sim/heap samples, got %v", self)
	}
}
