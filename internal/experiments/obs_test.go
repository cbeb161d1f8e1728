package experiments

import (
	"math"
	"testing"
	"time"

	"iolite/internal/apps"
	"iolite/internal/fsim"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// requireTiling asserts the acceptance invariant over every retained
// finished span: per-phase durations sum exactly to end-to-end latency.
func requireTiling(t *testing.T, col *obs.Collector) {
	t.Helper()
	spans := col.Finished()
	if len(spans) == 0 {
		t.Fatal("no finished spans retained")
	}
	for i, sp := range spans {
		if sp.PhaseSum() != sp.Latency() {
			t.Fatalf("span %d (%s): phase sum %v != latency %v", i, sp.Kind(), sp.PhaseSum(), sp.Latency())
		}
	}
}

// TestChaosTraceAcceptance is the issue's acceptance run: FigChaos's
// topology with tracing on, under injected loss and worker kills. Every
// completed request's phases tile its latency, retransmit stalls appear
// as a distinct phase, and the per-kind p99 is reported.
func TestChaosTraceAcceptance(t *testing.T) {
	col := obs.New()
	r := RunChaos(ChaosParams{
		LossProb:  0.02,
		KillEvery: 20 * time.Millisecond,
		Replay:    true,
		Warmup:    50 * time.Millisecond,
		Measure:   250 * time.Millisecond,
		Obs:       col,
	})
	if r.Requests == 0 {
		t.Fatal("chaos run completed no requests")
	}
	if r.Failed != 0 {
		t.Fatalf("%d requests failed with replay on", r.Failed)
	}
	requireTiling(t, col)
	if col.PhaseTotal(obs.PhaseRetransStall) == 0 {
		t.Error("no retrans-stall phase time under 2% segment loss")
	}
	if p99 := col.Quantile("chaos", 0.99); p99 == 0 {
		t.Error("no p99 reported for the chaos kind")
	}
	if r.P99Us == 0 || r.P50Us == 0 || r.P99Us < r.P50Us {
		t.Errorf("result percentiles p50=%v p99=%v malformed", r.P50Us, r.P99Us)
	}
	// The requester-side histogram and the collector's span histogram
	// measure the same completions; their p99s must agree to bucket
	// resolution plus the span's think-free framing.
	colP99 := float64(col.Quantile("chaos", 0.99)) / 1e3
	if math.Abs(colP99-r.P99Us) > 0.25*r.P99Us+50 {
		t.Errorf("span p99 %vµs vs requester p99 %vµs diverge", colP99, r.P99Us)
	}
}

// TestFCGINetRemoteWorkerTrace pins the cross-machine story at the
// experiment level: on sock-remote the client span carries the worker
// machine's service interval and worker-binned charges.
func TestFCGINetRemoteWorkerTrace(t *testing.T) {
	col := obs.New()
	r := RunFCGI(FCGIParams{
		Placement: PlaceSockRemote,
		Workers:   2,
		Ref:       true,
		Warmup:    50 * time.Millisecond,
		Measure:   200 * time.Millisecond,
		Obs:       col,
	})
	if r.Requests == 0 || r.Failures != 0 {
		t.Fatalf("requests=%d failures=%d", r.Requests, r.Failures)
	}
	requireTiling(t, col)
	marked := 0
	for _, sp := range col.Finished() {
		for _, rm := range sp.Remotes() {
			if rm.Host != "wkr" {
				t.Fatalf("remote mark host %q, want wkr", rm.Host)
			}
			if rm.End.Sub(rm.Start) <= 0 {
				t.Fatal("empty remote service interval")
			}
			marked++
		}
	}
	if marked == 0 {
		t.Error("no span carried the remote worker's service interval")
	}
	var workerCharges int64
	for k := 0; k < int(sim.NumChargeKinds); k++ {
		workerCharges += col.ChargeTotal(obs.PhaseWorker, sim.ChargeKind(k))
	}
	if workerCharges == 0 {
		t.Error("no charges binned to the worker phase; remote attribution is dead")
	}
	if col.PhaseTotal(obs.PhaseService) == 0 {
		t.Error("no service-phase time in client spans")
	}
	ts, vs := col.Series("pool-inflight")
	if len(ts) == 0 || len(vs) != len(ts) {
		t.Error("pool-inflight sampler recorded nothing")
	}
}

// TestWebAndProxyTraceKinds runs one httpd and one proxy topology with
// tracing on: spans land under the right kind names with sane phases.
func TestWebAndProxyTraceKinds(t *testing.T) {
	col := obs.New()
	wr := RunWeb(WebParams{
		Server:         ServerConfig{Kind: httpd.FlashLite},
		SingleFileSize: 8 << 10,
		Clients:        8,
		Warmup:         100 * time.Millisecond,
		Measure:        300 * time.Millisecond,
		Seed:           1,
		Obs:            col,
	})
	if wr.Requests == 0 {
		t.Fatal("web run completed no requests")
	}
	if wr.P50Us == 0 || wr.P99Us < wr.P50Us {
		t.Errorf("web percentiles p50=%v p99=%v malformed", wr.P50Us, wr.P99Us)
	}
	requireTiling(t, col)
	if h := col.Hist(httpd.FlashLite.String()); h == nil || h.Count() == 0 {
		t.Fatalf("no spans under kind %q; kinds seen: %v", httpd.FlashLite.String(), col.Kinds())
	}
	if col.PhaseTotal(obs.PhaseSend) == 0 || col.PhaseTotal(obs.PhaseCacheLookup) == 0 {
		t.Error("static-serve spans missing send or cache-lookup phase time")
	}

	pcol := obs.New()
	pr := RunProxy(ProxyParams{
		Origin:  ServerConfig{Kind: httpd.FlashLite},
		Mode:    apps.ProxyZeroCopy,
		Warmup:  200 * time.Millisecond,
		Measure: 400 * time.Millisecond,
		Seed:    7,
		Obs:     pcol,
	})
	if pr.Requests == 0 {
		t.Fatal("proxy run completed no requests")
	}
	requireTiling(t, pcol)
	if h := pcol.Hist("proxy-zerocopy"); h == nil || h.Count() == 0 {
		t.Fatalf("no spans under the proxy kind; kinds seen: %v", pcol.Kinds())
	}
	if ts, _ := pcol.Series("proxy-hit-rate"); len(ts) == 0 {
		t.Error("proxy-hit-rate sampler recorded nothing")
	}
}

// TestTracingOffIsFree pins the zero-cost claim end to end: the same
// deterministic RunFCGI with tracing off twice is bit-identical, and
// tracing on moves throughput by at most the trace extension's 4 wire
// bytes per record — within 2%.
func TestTracingOffIsFree(t *testing.T) {
	params := func(col *obs.Collector) FCGIParams {
		return FCGIParams{
			Placement: PlaceSockLocal,
			Workers:   2,
			Ref:       true,
			Warmup:    50 * time.Millisecond,
			Measure:   200 * time.Millisecond,
			Obs:       col,
		}
	}
	off1 := RunFCGI(params(nil))
	off2 := RunFCGI(params(nil))
	if off1.Requests != off2.Requests || off1.KReqPerSec != off2.KReqPerSec {
		t.Fatalf("untraced runs diverge: %d vs %d requests", off1.Requests, off2.Requests)
	}
	on := RunFCGI(params(obs.New()))
	if off1.Requests == 0 {
		t.Fatal("no requests completed")
	}
	rel := math.Abs(on.KReqPerSec-off1.KReqPerSec) / off1.KReqPerSec
	if rel > 0.02 {
		t.Errorf("tracing moved throughput %.1f%% (%.2f vs %.2f kreq/s), want ≤2%%",
			rel*100, on.KReqPerSec, off1.KReqPerSec)
	}
}

// TestWorldWarmupResetsTrackedMeters: work done before the warmup
// boundary leaves no trace in any tracked meter — a machine's CPU, disk
// and mmap cache, the cost model, and a requester population's windowed
// counts — while the whole-run failure count survives.
func TestWorldWarmupResetsTrackedMeters(t *testing.T) {
	w := newWorld(nil, 100*time.Millisecond, time.Millisecond)
	defer w.eng.Close()
	m := w.machine(kernel.Config{})
	reqs := &requesters{done: 5, attempts: 7, failed: 2}
	w.track(reqs)
	f := m.FS.Create("/f", 64<<10)
	pr := m.NewProcess("p", 1<<20)
	w.eng.Go("warmup-work", func(p *sim.Proc) {
		m.Mmap(p, pr, f)
		w.costs.Copy(100)
	})
	before := false
	w.eng.At(w.warm-1, func() {
		before = m.Mmaps.Stats().Misses == 1 && m.Disk.Stats().Reads > 0 && w.costs.Stats().CopiedBytes == 100
	})
	w.run(func() {
		if !before {
			t.Fatal("warmup work did not move the meters before the boundary")
		}
		if got := m.Mmaps.Stats(); got != (kernel.MmapStats{}) {
			t.Errorf("mmap stats = %+v, want zero", got)
		}
		if got := m.Disk.Stats(); got != (fsim.DiskStats{}) {
			t.Errorf("disk stats = %+v, want zero", got)
		}
		if got := w.costs.Stats(); got != (sim.CostStats{}) {
			t.Errorf("cost stats = %+v, want zero", got)
		}
		if got := m.CPU().BusyTime(); got != 0 {
			t.Errorf("CPU busy %v after the boundary, want 0", got)
		}
		if reqs.done != 0 || reqs.attempts != 0 || reqs.failed != 2 {
			t.Errorf("requesters done/attempts/failed = %d/%d/%d, want 0/0/2", reqs.done, reqs.attempts, reqs.failed)
		}
	})
}
