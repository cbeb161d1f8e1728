// Command perfbench is the repository's benchmark. It runs one workload
// of the IO-Lite simulator through the experiments runners and reports
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1), checks
// every run's outputs, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload web-trace --seed 1 --seconds 15 --trace 0
//
// Every measured run happens in a fresh process, so memory metrics are
// per run. See README.md for the metrics, their clocks and what each layer
// metric should move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// maxProcs is GOMAXPROCS for the benchmark and its run processes. The
// simulator runs one simulated proc at a time, so one P serves it. With
// one P the garbage collector's work shows in the run's host time, and
// host timings do not depend on whether a second core is free on a shared
// machine.
const maxProcs = 1

// minReps is the fewest runs a measurement makes, however long each one
// takes.
const minReps = 3

// deadline bounds a whole measurement: a run process still going then is
// killed and the benchmark fails instead of hanging.
const deadline = 150 * time.Second

func main() {
	var (
		wlName   = flag.String("workload", "", "workload to run: web-trace, fcgi-ref, proxy-zc or chaos")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 15, "host seconds to keep starting measured runs")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir   = flag.String("out", ".bench_build", "directory for the traced run's Chrome trace")
		child    = flag.Bool("child", false, "perform one run and report it as JSON (used by the benchmark itself)")
		traced   = flag.Bool("traced", false, "with -child: attach an obs collector")
		profiled = flag.Bool("profiled", false, "with -child: take a CPU profile of the timed call")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	w, ok := findWorkload(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *child {
		if err := runChild(w, *seed, *traced, *profiled); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}

	res, err := measureWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measureWorkload runs one measurement of w: end-to-end, or per-layer
// with the benchmark's spans written to outDir as a Chrome trace.
func measureWorkload(w workload, seed int64, budget time.Duration, perLayer bool, outDir string) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: seed, budget: budget, start: time.Now()}
	if !perLayer {
		return b.endToEnd()
	}
	res, err := b.perLayer()
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := b.spans.writeChrome(path); err != nil {
		return result{}, err
	}
	fmt.Printf("chrome trace of the benchmark's spans: %s\n", path)
	return res, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, its unit and the clock it is measured on.
type metricDef struct {
	name, unit, clock string
}

// endToEndDefs are the --trace 0 metrics. Simulated-clock units say so,
// so a simulated time is never read as a host time.
var endToEndDefs = []metricDef{
	{"sim_kreq_s", "kreq/sim_s", "sim"},
	{"sim_mbps", "Mb/sim_s", "sim"},
	{"sim_p50_ms", "sim_ms", "sim"},
	{"sim_p99_ms", "sim_ms", "sim"},
	{"ok_frac", "frac", "sim"},
	{"sim_req_per_host_s", "req/s", "host"},
	{"peak_rss_mb", "MB", "host"},
	{"retained_heap_mb", "MB", "host"},
	{"leaked_goroutines", "count", "host"},
	{"setup_s", "s", "host"},
}

// perLayerDefs are the --trace 1 metrics, in report order.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"sim.requests", "count", "sim"},
		{"sim.distinct_outcomes", "count", "sim"},
		{"sim.switch_ns", "ns", "host"},
		{"sim.switch_allocs", "allocs", "host"},
		{"sim.event_ns", "ns", "host"},
		{"sim.event_allocs", "allocs", "host"},
		{"sim.wheel_timer_ns", "ns", "host"},
		{"core.pool_alloc_ns", "ns", "host"},
		{"core.pack_ns", "ns", "host"},
		{"cksum.sum_ns_per_kb", "ns/KB", "host"},
		{"cksum.cache_hit_frac", "frac", "sim"},
		{"fcgi.decode_record_ns", "ns", "host"},
		{"fcgi.replays_per_kreq", "1/kreq", "sim"},
		{"fcgi.respawns_per_kreq", "1/kreq", "sim"},
		{"fcgi.reroutes_per_kreq", "1/kreq", "sim"},
		{"kernel.copied_kb_per_req", "KB/req", "sim"},
		{"kernel.syscalls_per_req", "1/req", "sim"},
		{"kernel.cpu_util", "frac", "sim"},
		{"cache.hit_frac", "frac", "sim"},
		{"fsim.disk_util", "frac", "sim"},
		{"apps.proxy_hit_frac", "frac", "sim"},
		{"netsim.pkts_per_req", "1/req", "sim"},
		{"netsim.acks_per_req", "1/req", "sim"},
		{"netsim.segfill", "frac", "sim"},
		{"netsim.retrans_pct", "%", "sim"},
	}
	for _, ph := range phaseNames() {
		defs = append(defs, metricDef{"obs.phase_ms." + ph, "sim_ms", "sim"})
	}
	defs = append(defs,
		metricDef{"obs.trace_overhead_frac", "frac", "host"},
		metricDef{"obs.trace_overhead_iqr", "frac", "host"},
		metricDef{"host.allocs_per_req", "allocs/req", "host"},
		metricDef{"host.alloc_kb_per_req", "KB/req", "host"},
		metricDef{"host.gc_cpu_frac", "frac", "host"},
	)
	for _, pkg := range profiledPkgs {
		defs = append(defs, metricDef{"host.self_frac." + pkg, "frac", "host"})
	}
	return defs
}()

// notExposed is the value of a per-layer metric the workload's runner
// does not report (README.md lists which).
const notExposed = -1

// bench runs one workload's measured runs and collects what they report.
type bench struct {
	ctx    context.Context
	w      workload
	seed   int64
	budget time.Duration
	start  time.Time
	spans  spanLog

	attempted, failed int64
	problems          []string
	// outcomes counts, per input seed index, the untraced runs that
	// produced each simulated outcome.
	outcomes map[int]map[string]int
}

// rep is one measured run as the parent sees it.
type rep struct {
	repReport
	PeakRSSMB float64
	SetupS    float64
}

// run launches one run process on input seed index j and collects its
// report.
func (b *bench) run(j int, traced, profiled bool) (rep, error) {
	self, err := os.Executable()
	if err != nil {
		return rep{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	name := "run process"
	if traced {
		name = "traced run process"
	}
	id, end := b.spans.begin(name, 0)
	cmd := exec.CommandContext(b.ctx, self, "-child", "-workload", b.w.name, "-seed", strconv.FormatInt(runSeed(b.seed, j), 10),
		"-traced="+strconv.FormatBool(traced), "-profiled="+strconv.FormatBool(profiled))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	launch := time.Now()
	err = cmd.Run()
	end()
	if err != nil {
		return rep{}, fmt.Errorf("run process for %s: %w", b.w.name, err)
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r.repReport); err != nil {
		return rep{}, fmt.Errorf("run process report: %w", err)
	}
	b.spans.adopt(r.Spans, id)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	r.SetupS = float64(r.StartUnixNano-launch.UnixNano())/1e9 + r.InputsS

	o := r.Outcome
	for _, p := range o.Problems {
		b.problems = append(b.problems, fmt.Sprintf("%s: %s", b.w.name, p))
	}
	if !traced {
		// Tracing is not part of the measured program; only untraced runs
		// count toward the determinism check.
		if b.outcomes == nil {
			b.outcomes = map[int]map[string]int{}
		}
		if b.outcomes[j] == nil {
			b.outcomes[j] = map[string]int{}
		}
		b.outcomes[j][o.Tuple]++
		b.attempted += o.Attempted
		b.failed += o.Failed
	}
	return r, nil
}

// within reports whether the measurement budget still has time left.
func (b *bench) within() bool { return time.Since(b.start) < b.budget }

// distinctOutcomes is the largest number of distinct simulated outcomes
// that runs with identical parameters (one input seed) produced.
func (b *bench) distinctOutcomes() int {
	n := 0
	for _, tuples := range b.outcomes {
		n = max(n, len(tuples))
	}
	return n
}

// checkDeterminism adds a problem when a workload that must simulate
// identically on every run did not.
func (b *bench) checkDeterminism() {
	if n := b.distinctOutcomes(); b.w.deterministic && n > 1 {
		b.problems = append(b.problems, fmt.Sprintf(
			"%s: %d distinct simulated outcomes across runs with identical parameters", b.w.name, n))
	}
}

func (b *bench) result(metrics map[string]metric) result {
	b.checkDeterminism()
	for _, p := range b.problems {
		fmt.Printf("CORRECTNESS: %s\n", p)
	}
	return result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

// endToEnd measures the end-to-end metrics with untraced runs, one
// process each. A first pass runs each of the workload's input seeds
// once; the simulated metrics are interquartile means over it. Runs then
// cycle through the seeds again until the budget is spent, and host
// metrics are medians over every run.
func (b *bench) endToEnd() (result, error) {
	var reps []rep
	for len(reps) < max(b.w.seeds, minReps) || b.within() {
		r, err := b.run(len(reps)%b.w.seeds, false, false)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
	}
	host := func(f func(r rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	sim := func(f func(o outcome) float64) []float64 {
		xs := make([]float64, b.w.seeds)
		for i, r := range reps[:b.w.seeds] {
			xs[i] = f(r.Outcome)
		}
		return xs
	}
	okFrac := math.NaN()
	if b.attempted > 0 {
		okFrac = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	values := map[string][]float64{
		"sim_kreq_s":         sim(func(o outcome) float64 { return o.KReqS }),
		"sim_mbps":           sim(func(o outcome) float64 { return o.Mbps }),
		"sim_p50_ms":         sim(func(o outcome) float64 { return o.P50Ms }),
		"sim_p99_ms":         sim(func(o outcome) float64 { return o.P99Ms }),
		"ok_frac":            {okFrac},
		"sim_req_per_host_s": host(func(r rep) float64 { return float64(r.Outcome.Requests) / r.HostRunS }),
		"peak_rss_mb":        host(func(r rep) float64 { return r.PeakRSSMB }),
		"retained_heap_mb":   host(func(r rep) float64 { return r.RetainedHeapMB }),
		"leaked_goroutines":  host(func(r rep) float64 { return float64(r.LeakedGoroutines) }),
		"setup_s":            host(func(r rep) float64 { return r.SetupS }),
	}
	requests := sim(func(o outcome) float64 { return float64(o.Requests) })

	fmt.Printf("%s, seed %d: %d isolated runs over %d input seed(s); at most %d distinct simulated outcome(s) per seed; fail_frac %d/%d\n",
		b.w.name, b.seed, len(reps), b.w.seeds, b.distinctOutcomes(), b.failed, b.attempted)
	fmt.Printf("%-20s %14s %-11s %-5s %s\n", "metric", "value", "unit", "clock", "over runs: IQR/median")
	metrics := map[string]metric{}
	for _, d := range endToEndDefs {
		xs := values[d.name]
		v := median(xs)
		if d.clock == "sim" {
			v = midMean(xs)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		note := fmt.Sprintf("%d runs: %.4f", len(xs), relSpread(xs))
		if d.name == "sim_p50_ms" || d.name == "sim_p99_ms" {
			note += fmt.Sprintf("  (sim.requests %.0f samples per run)", midMean(requests))
		}
		fmt.Printf("%-20s %14.6g %-11s %-5s %s\n", d.name, v, d.unit, d.clock, note)
	}
	return b.result(metrics), nil
}

// perLayer measures the per-layer metrics: the layer microbenchmarks, then
// pairs of untraced and traced runs (in alternating order) until the
// budget is spent. Every run is CPU-profiled, so the profiler's cost falls
// on both sides of the trace-overhead comparison. Every run uses the first
// input seed, so sim.distinct_outcomes counts drift between runs with
// identical parameters.
func (b *bench) perLayer() (result, error) {
	values := map[string]float64{}
	for _, m := range micros {
		_, end := b.spans.begin("microbenchmark "+m.ns, 0)
		r, err := measure(m.run)
		end()
		if err != nil {
			b.problems = append(b.problems, fmt.Sprintf("%s: %v", m.ns, err))
			continue
		}
		values[m.ns] = r.NsPerOp
		if m.allocs != "" {
			values[m.allocs] = r.AllocsPerOp
		}
	}

	var plain, traced []rep
	for len(plain) < 2 || b.within() {
		order := []bool{false, true}
		if len(plain)%2 == 1 {
			order = []bool{true, false}
		}
		for _, tr := range order {
			r, err := b.run(0, tr, true)
			if err != nil {
				return result{}, err
			}
			if tr {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
	}

	// Runner-reported layer metrics and host costs: medians over the
	// untraced runs. Collector metrics: medians over the traced runs.
	var layer, collected []map[string]float64
	for _, r := range plain {
		layer = append(layer, r.Outcome.Layer)
	}
	for _, r := range traced {
		collected = append(collected, r.Obs)
	}
	for _, ms := range [][]map[string]float64{layer, collected} {
		for k, v := range medianByKey(ms) {
			values[k] = v
		}
	}
	self := map[string]float64{}
	var selfTotal float64
	for _, r := range plain {
		for pkg, ns := range r.SelfNs {
			self[pkg] += ns
			selfTotal += ns
		}
	}
	if selfTotal == 0 {
		b.problems = append(b.problems, b.w.name+": the CPU profiles hold no samples")
		selfTotal = 1
	}
	for _, pkg := range profiledPkgs {
		values["host.self_frac."+pkg] = self[pkg] / selfTotal
	}
	var reqs, allocs, allocKB, gc, overhead []float64
	for i, r := range plain {
		n := float64(r.Outcome.Requests)
		reqs = append(reqs, n)
		allocs = append(allocs, float64(r.Allocs)/n)
		allocKB = append(allocKB, float64(r.AllocBytes)/1024/n)
		gc = append(gc, r.GCCPUFrac)
		t := traced[i]
		overhead = append(overhead, (t.HostRunS/float64(t.Outcome.Requests))/(r.HostRunS/n)-1)
	}
	values["sim.requests"] = median(reqs)
	values["sim.distinct_outcomes"] = float64(b.distinctOutcomes())
	values["host.allocs_per_req"] = median(allocs)
	values["host.alloc_kb_per_req"] = median(allocKB)
	values["host.gc_cpu_frac"] = median(gc)
	q1, med, q3 := quartiles(overhead)
	values["obs.trace_overhead_frac"] = med
	values["obs.trace_overhead_iqr"] = q3 - q1

	fmt.Printf("%s, seed %d: microbenchmarks, %d untraced + %d traced runs, all CPU-profiled and on input seed %d; %d distinct simulated outcome(s); %.0f ms of profile samples\n",
		b.w.name, b.seed, len(plain), len(traced), runSeed(b.seed, 0), b.distinctOutcomes(), selfTotal/1e6)
	verdict := "resolved"
	if math.Abs(med) <= q3-q1 {
		verdict = "not resolved: within the run-to-run spread"
	}
	fmt.Printf("trace overhead per request: %+.4f (IQR %.4f over %d pairs, %s)\n", med, q3-q1, len(overhead), verdict)
	perturbed := 0
	for _, t := range traced {
		if b.outcomes[0][t.Outcome.Tuple] == 0 {
			perturbed++
		}
	}
	fmt.Printf("traced runs whose simulated outcome no untraced run produced: %d of %d\n", perturbed, len(traced))
	var phaseSum float64
	for _, ph := range phaseNames() {
		phaseSum += values["obs.phase_ms."+ph]
	}
	fmt.Printf("obs phases sum to %.6g sim ms per span (%.0f spans per traced run)\n", phaseSum, values["obs.spans"])
	metrics := map[string]metric{}
	var absent []string
	for _, d := range perLayerDefs {
		v, ok := values[d.name]
		if !ok {
			v = notExposed
			absent = append(absent, d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.6g %-10s %s\n", d.name, v, d.unit, d.clock)
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		fmt.Printf("not exposed by the %s runner (reported as %d): %v\n", b.w.name, notExposed, absent)
	}
	return b.result(metrics), nil
}
