package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"iolite/internal/obs"
	"iolite/internal/sim"
)

// Each measured run of a workload happens in its own process (the parent
// re-executes this binary with -child), so one run's leaked world cannot
// inflate the next run's memory metrics, and peak RSS is that run's own.

// repReport is what one run process reports to the parent.
type repReport struct {
	Outcome outcome
	// StartUnixNano is the wall clock when the process began its work and
	// InputsS the host seconds it then spent building the workload's
	// inputs. The run's set-up time is the process start (StartUnixNano
	// minus the parent's launch time) plus InputsS; the measuring
	// apparatus between set-up and the timed call is excluded.
	StartUnixNano int64
	InputsS       float64
	// HostRunS is the host wall time of the timed call, world
	// construction included.
	HostRunS float64
	// RetainedHeapMB is the live heap after the call returned, its
	// inputs were dropped and the heap was collected.
	RetainedHeapMB float64
	// LeakedGoroutines is goroutines alive after the call minus before.
	LeakedGoroutines int
	// Allocs and AllocBytes count heap allocations during the call;
	// GCCPUFrac is the share of the process's available CPU spent in GC.
	Allocs     uint64
	AllocBytes uint64
	GCCPUFrac  float64
	// SelfNs is the CPU profile's self time by package group, in
	// nanoseconds (profiled runs only).
	SelfNs map[string]float64 `json:",omitempty"`
	// Obs holds the obs collector's per-request metrics (traced runs
	// only).
	Obs map[string]float64 `json:",omitempty"`
	// Spans are the run process's own spans.
	Spans []span
}

// runChild performs one run of w and writes its repReport to stdout.
func runChild(w workload, seed int64, traced, profiled bool) error {
	start := time.Now()
	g0 := runtime.NumGoroutine()
	var log spanLog
	_, endSetup := log.begin("setup "+w.name, 0)
	call := w.prepare(seed)
	inputs := time.Since(start)
	endSetup()

	var col *obs.Collector
	if traced {
		col = obs.New()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}

	_, endRun := log.begin("run "+w.name, 0)
	ready := time.Now()
	o := call(col)
	host := time.Since(ready)
	endRun()
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)

	rep := repReport{
		Outcome:       o,
		StartUnixNano: start.UnixNano(),
		InputsS:       inputs.Seconds(),
		HostRunS:      host.Seconds(),
		Allocs:        m1.Mallocs - m0.Mallocs,
		AllocBytes:    m1.TotalAlloc - m0.TotalAlloc,
		GCCPUFrac:     m1.GCCPUFraction,
		Obs:           obsMetrics(col),
	}
	if profiled {
		self, err := selfByPackage(prof.Bytes())
		if err != nil {
			return err
		}
		rep.SelfNs = self
	}

	// The inputs and the collector are dead from here on, so the heap
	// retained below is only what the program itself keeps alive.
	rep.LeakedGoroutines = settledGoroutines() - g0
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	rep.RetainedHeapMB = float64(m2.HeapAlloc) / (1 << 20)
	rep.Spans = log.spans
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// settledGoroutines returns the goroutine count once it has stopped
// changing: procs that finished may still be on their way out when the
// engine returns.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// obsMetrics reduces a collector to per-request means: simulated time in
// each phase, and the copy bytes and syscalls charged to requests. Nil for
// a nil collector.
func obsMetrics(col *obs.Collector) map[string]float64 {
	if col == nil {
		return nil
	}
	var spans int64
	for _, k := range col.Kinds() {
		spans += col.Hist(k).Count()
	}
	m := map[string]float64{"obs.spans": float64(spans)}
	if spans == 0 {
		return m
	}
	var copied, syscalls int64
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		m["obs.phase_ms."+ph.String()] = float64(col.PhaseTotal(ph)) / float64(spans) / 1e6
		copied += col.ChargeTotal(ph, sim.ChargeCopy)
		syscalls += col.ChargeTotal(ph, sim.ChargeSyscall)
	}
	m["kernel.copied_kb_per_req"] = float64(copied) / float64(spans) / 1024
	m["kernel.syscalls_per_req"] = float64(syscalls) / float64(spans)
	return m
}

// phaseNames lists the obs phases in order.
func phaseNames() []string {
	names := make([]string, obs.NumPhases)
	for ph := range names {
		names[ph] = obs.Phase(ph).String()
	}
	return names
}
