package main

import (
	"fmt"
	"math"
	"time"

	"iolite/internal/apps"
	"iolite/internal/experiments"
	"iolite/internal/obs"
	"iolite/internal/wload"
)

// outcome is what one timed Run* call produced, in the benchmark's terms.
type outcome struct {
	// Requests completed in the measure window; Attempted adds the
	// requests that failed, errored or were aborted (Failed).
	Requests  int64
	Attempted int64
	Failed    int64

	KReqS float64
	Mbps  float64
	P50Ms float64
	P99Ms float64

	// Tuple is the runner's whole result, every field printed exactly:
	// two calls simulated identically exactly when their tuples match.
	Tuple string
	// Layer holds the per-layer metrics the runner's result exposes.
	Layer map[string]float64
	// Problems lists the correctness-gate violations of this call.
	Problems []string
}

// workload is one benchmark workload.
type workload struct {
	name string
	// deterministic workloads must give identical simulated results on
	// every run with the same seed; the others report their drift.
	deterministic bool
	// seeds is how many input seeds one measurement spans (see
	// runSeed): simulated metrics are interquartile means over one run of
	// each, so no single lucky or unlucky input can swing them.
	seeds int
	// prepare builds the workload's inputs from seed and returns the
	// timed call; col, when non-nil, traces every request.
	prepare func(seed int64) func(col *obs.Collector) outcome
}

var workloads = []workload{
	{name: "web-trace", seeds: 16, prepare: prepareWeb},
	{name: "fcgi-ref", deterministic: true, seeds: 1, prepare: prepareFCGI},
	{name: "proxy-zc", deterministic: true, seeds: 1, prepare: prepareProxy},
	{name: "chaos", seeds: 24, prepare: prepareChaos},
}

// runSeed is the input seed of a measurement's j-th seed, for the
// benchmark's --seed s. Seeds of different --seed values never overlap
// while a workload spans fewer than 1000 of them.
func runSeed(s int64, j int) int64 { return s*1000 + int64(j) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// finish fills the fields every workload derives the same way and applies
// the checks every workload shares.
func (o outcome) finish(result interface{}) outcome {
	o.Tuple = fmt.Sprintf("%+v", result)
	o.Attempted = o.Requests + o.Failed
	if o.Requests <= 0 {
		o.Problems = append(o.Problems, "no request completed in the measure window")
	}
	for name, v := range map[string]float64{"kreq/s": o.KReqS, "Mb/s": o.Mbps, "p50": o.P50Ms, "p99": o.P99Ms} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			o.Problems = append(o.Problems, fmt.Sprintf("%s is %v", name, v))
		}
	}
	if o.P99Ms < o.P50Ms {
		o.Problems = append(o.Problems, fmt.Sprintf("p99 %v ms below p50 %v ms", o.P99Ms, o.P50Ms))
	}
	return o
}

// payloadMbps is the response payload goodput of a runner that counts
// requests but not bytes: each completed request returned one document.
func payloadMbps(requests int64, doc int64, window time.Duration) float64 {
	return float64(requests*doc) * 8 / window.Seconds() / 1e6
}

// web-trace: Flash-Lite serving the 150 MB MERGED subtrace from 128 MB of
// memory to 64 non-persistent clients on 5 machines. Disk-bound.
func prepareWeb(seed int64) func(*obs.Collector) outcome {
	spec := wload.Subtrace150
	spec.Seed = seed
	tr := wload.Generate(spec)
	const measure = 3 * time.Second
	return func(col *obs.Collector) outcome {
		r := experiments.RunWeb(experiments.WebParams{
			Server:         experiments.CfgFlashLite,
			Clients:        64,
			ClientMachines: 5,
			Trace:          tr,
			Warmup:         time.Second,
			Measure:        measure,
			Seed:           seed,
			Obs:            col,
		})
		o := outcome{
			Requests: r.Requests,
			Failed:   r.Errors,
			KReqS:    float64(r.Requests) / measure.Seconds() / 1e3,
			Mbps:     r.Mbps,
			P50Ms:    r.P50Us / 1e3,
			P99Ms:    r.P99Us / 1e3,
			Layer: map[string]float64{
				"kernel.cpu_util": r.CPUUtil,
				"cache.hit_frac":  r.HitRate,
				"fsim.disk_util":  r.DiskUtil,
			},
		}
		return o.finish(r)
	}
}

// fcgi-ref: a 4-worker, depth-8 reference-mode fcgi pool under 32
// requesters, 16 KB documents and a 400 µs app wait. CPU-bound; no
// network, disk or file cache, and no randomness (the seed is unused).
func prepareFCGI(int64) func(*obs.Collector) outcome {
	const measure = 1500 * time.Millisecond
	return func(col *obs.Collector) outcome {
		r := experiments.RunFCGI(experiments.FCGIParams{
			Workers:    4,
			Depth:      8,
			Requesters: 32,
			DocBytes:   docBytes,
			AppDelay:   400 * time.Microsecond,
			Ref:        true,
			Warmup:     300 * time.Millisecond,
			Measure:    measure,
			Obs:        col,
		})
		o := outcome{
			Requests: r.Requests,
			Failed:   r.Failures,
			KReqS:    r.KReqPerSec,
			Mbps:     payloadMbps(r.Requests, docBytes, measure),
			P50Ms:    r.P50Us / 1e3,
			P99Ms:    r.P99Us / 1e3,
			Layer: map[string]float64{
				"kernel.cpu_util": r.CPUUtil,
			},
		}
		return o.finish(r)
	}
}

// proxySeed is the clients' request-sampling seed on proxy-zc, the one
// FigProxy uses. It is fixed so the workload's simulated results are
// identical on every run, whatever the benchmark's seed.
const proxySeed = 7

// proxy-zc: the zero-copy caching relay in front of a Flash-Lite origin,
// 8 × 64 KB documents, 32 clients on 4 machines. CPU-bound, two network
// hops.
func prepareProxy(int64) func(*obs.Collector) outcome {
	const measure = 6 * time.Second
	return func(col *obs.Collector) outcome {
		r := experiments.RunProxy(experiments.ProxyParams{
			Origin:         experiments.CfgFlashLite,
			Mode:           apps.ProxyZeroCopy,
			Docs:           8,
			DocBytes:       64 << 10,
			Clients:        32,
			ClientMachines: 4,
			Warmup:         500 * time.Millisecond,
			Measure:        measure,
			Seed:           proxySeed,
			Obs:            col,
		})
		o := outcome{
			Requests: r.Requests,
			Failed:   r.Errors + r.Aborted,
			KReqS:    float64(r.Requests) / measure.Seconds() / 1e3,
			Mbps:     r.Mbps,
			P50Ms:    r.P50Us / 1e3,
			P99Ms:    r.P99Us / 1e3,
			Layer: map[string]float64{
				"kernel.cpu_util":      r.ServerCPUUtil,
				"cksum.cache_hit_frac": r.CksumHitRate,
				"apps.proxy_hit_frac":  r.HitRate,
				"netsim.pkts_per_req":  r.PktsPerReq,
				"netsim.acks_per_req":  r.AcksPerReq,
				"netsim.segfill":       r.SegFill,
			},
		}
		return o.finish(r)
	}
}

// chaos: the 2 × 16 sock-local ref fcgi pool with 1% segment loss, a
// worker kill every 20 ms and idempotent replay, 40 ms think time.
func prepareChaos(seed int64) func(*obs.Collector) outcome {
	const measure = 5 * time.Second
	return func(col *obs.Collector) outcome {
		r := experiments.RunChaos(experiments.ChaosParams{
			DocBytes:  docBytes,
			LossProb:  0.01,
			KillEvery: 20 * time.Millisecond,
			Replay:    true,
			Seed:      uint64(seed),
			Warmup:    100 * time.Millisecond,
			Measure:   measure,
			Obs:       col,
		})
		o := outcome{
			Requests: r.Requests,
			Failed:   r.Failed,
			KReqS:    r.GoodputKReq,
			Mbps:     payloadMbps(r.Requests, docBytes, measure),
			P50Ms:    r.P50Us / 1e3,
			P99Ms:    r.P99Us / 1e3,
			Layer: map[string]float64{
				"netsim.retrans_pct": r.RetransPct * 100,
			},
		}
		if r.Requests > 0 {
			k := float64(r.Requests) / 1e3
			o.Layer["fcgi.replays_per_kreq"] = float64(r.Replays) / k
			o.Layer["fcgi.respawns_per_kreq"] = float64(r.Respawns) / k
			o.Layer["fcgi.reroutes_per_kreq"] = float64(r.Reroutes) / k
		}
		if r.Failed > 0 {
			o.Problems = append(o.Problems, fmt.Sprintf("%d requests failed with replay on", r.Failed))
		}
		if r.LeakPages > 0 {
			o.Problems = append(o.Problems, fmt.Sprintf("%d pages leaked", r.LeakPages))
		}
		return o.finish(r)
	}
}
