// Package experiments reproduces every figure of the paper's evaluation
// (Section 5). Each FigN function builds the corresponding experiment —
// server configuration, network, workload — runs it on the simulated
// testbed, and returns a table shaped like the paper's plot. Both
// bench_test.go and cmd/webbench drive these runners.
package experiments

import (
	"math/rand"
	"time"

	"iolite/internal/cache"
	"iolite/internal/fsim"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/wload"
)

// ServerConfig names one server configuration under test.
type ServerConfig struct {
	Kind httpd.Kind
	// Policy selects the Flash-Lite file cache policy: "GDS" (default) or
	// "LRU" (the Figure 11 ablation). Ignored for conventional servers.
	Policy string
	// NoCksumCache disables the checksum cache on Flash-Lite (Figure 11).
	NoCksumCache bool
}

// Label renders the configuration name as the paper writes it.
func (sc ServerConfig) Label() string {
	l := sc.Kind.String()
	if sc.Kind.Lite() {
		if sc.Policy == "LRU" {
			l += " LRU"
		}
		if sc.NoCksumCache {
			l += " no-cksum"
		}
	}
	return l
}

// Standard configurations.
var (
	CfgFlashLite       = ServerConfig{Kind: httpd.FlashLite}
	CfgFlashLiteSplice = ServerConfig{Kind: httpd.FlashLiteSplice}
	CfgFlash           = ServerConfig{Kind: httpd.Flash}
	CfgApache          = ServerConfig{Kind: httpd.Apache}
)

// originMachineConfig builds the kernel config of a web server machine of
// the given configuration: the IO-Lite kernel's unified cache policy and
// checksum cache for the Lite kinds, a conventional kernel otherwise.
func originMachineConfig(sc ServerConfig, memBytes int64, offload bool) kernel.Config {
	kcfg := kernel.Config{MemBytes: memBytes, Offload: offload}
	if sc.Kind.Lite() {
		if sc.Policy == "LRU" {
			kcfg.Policy = cache.NewLRU()
		} else {
			kcfg.Policy = cache.NewGDS()
		}
		kcfg.ChecksumCache = !sc.NoCksumCache
	}
	return kcfg
}

// WebParams describes one experiment run.
type WebParams struct {
	Server ServerConfig

	// Clients is the closed-loop client population, spread over
	// ClientMachines machines (default 5, as in the testbed).
	Clients        int
	ClientMachines int
	// Persistent selects HTTP/1.1 keep-alive connections.
	Persistent bool
	// Delay is the one-way link delay injected by the delay routers
	// (Figure 12).
	Delay time.Duration
	// Tss is the socket send buffer size (default 64 KB).
	Tss int
	// MemBytes is server memory (default 128 MB).
	MemBytes int64

	// Exactly one workload:
	// SingleFileSize serves one static document of this size (Figs 3-4);
	SingleFileSize int64
	// CGISize serves one dynamic document of this size (Figs 5-6);
	CGISize int64
	// Trace samples requests from a generated trace (Figs 8, 10-12).
	Trace *wload.Trace

	// Warmup is excluded from measurement; Measure is the timed window.
	Warmup  time.Duration
	Measure time.Duration

	Seed int64

	// Obs, when set, traces every request through the server (spans,
	// phase attribution, per-kind latency histograms). Latency
	// percentiles in the result do not require it — clients always
	// measure their own.
	Obs *obs.Collector
}

// WebResult is one experiment outcome.
type WebResult struct {
	Label    string
	Mbps     float64
	Requests int64
	Errors   int64
	// HitRate is the file cache hit rate during measurement (unified cache
	// for Flash-Lite, mmap cache otherwise).
	HitRate  float64
	CPUUtil  float64
	DiskUtil float64
	// P50Us / P99Us are client-observed request latency percentiles over
	// the measure window, in microseconds.
	P50Us float64
	P99Us float64
}

// RunWeb executes one experiment and returns its result.
func RunWeb(wp WebParams) WebResult {
	orDefault(&wp.ClientMachines, 5)
	orDefault(&wp.Clients, 40)
	orDefault(&wp.Tss, 64<<10)
	orDefault(&wp.MemBytes, 128<<20)
	orDefault(&wp.Warmup, 2*time.Second)
	orDefault(&wp.Measure, 5*time.Second)

	w := newWorld(wp.Obs, wp.Warmup, wp.Measure)
	defer w.eng.Close()
	isLite := wp.Server.Kind.Lite()
	m := w.machine(originMachineConfig(wp.Server, wp.MemBytes, false))
	lst := netsim.NewListener(m.Host)
	srv := httpd.NewServer(httpd.Config{
		Kind:     wp.Server.Kind,
		Machine:  m,
		Listener: lst,
		CGI:      wp.CGISize > 0,
		// The paper's measured servers dispatched one request per worker
		// at a time (§5.3); pin that shape so Figs 5-6 keep measuring it.
		// The multiplexed protocol (depth > 1) is FigFCGI's subject.
		CGIDepth: 1,
		Obs:      wp.Obs,
	})
	w.track(srv)

	// Workload.
	var nextPath func(rng *rand.Rand) string
	switch {
	case wp.SingleFileSize > 0:
		m.FS.Create("/doc", wp.SingleFileSize)
		nextPath = func(*rand.Rand) string { return "/doc" }
	case wp.CGISize > 0:
		path := httpd.CGIDocPath(wp.CGISize)
		nextPath = func(*rand.Rand) string { return path }
	case wp.Trace != nil:
		wp.Trace.Install(m.FS)
		tr := wp.Trace
		nextPath = func(rng *rand.Rand) string { return tr.Path(tr.Sample(rng)) }
		// Start from steady state: the most popular documents are already
		// cached, as they would be hours into the paper's runs. Leave
		// headroom for socket buffers and churn.
		files := make([]*fsim.File, 0, tr.Spec.Files)
		for i := 0; i < tr.Spec.Files; i++ {
			f := m.FS.Lookup(nil, tr.Path(i))
			files = append(files, f)
			srv.PrimeOpen(tr.Path(i), f)
		}
		keepFree := mem.PagesFor(12 << 20)
		if isLite {
			m.PrewarmUnified(files, keepFree)
		} else {
			m.PrewarmMmap(srv.Process(), files, keepFree)
		}
	default:
		panic("experiments: no workload configured")
	}

	// Client machines behind the delay routers.
	cs := w.spawnClients(clientTier{
		Machines: wp.ClientMachines, Clients: wp.Clients,
		Front: m.Host, Listener: lst, Delay: wp.Delay,
		Tss: wp.Tss, RefServer: isLite, Persistent: wp.Persistent, Seed: wp.Seed,
	}, nextPath)

	res := WebResult{Label: wp.Server.Label()}
	w.run(func() {
		ss := srv.Stats()
		res.Requests = ss.Requests
		res.Mbps = float64(ss.TotalBytes) * 8 / wp.Measure.Seconds() / 1e6
		res.CPUUtil = m.CPU().Utilization()
		res.DiskUtil = m.Disk.Utilization()
		if isLite {
			res.HitRate = m.FileCache.Stats().HitRate()
		} else {
			res.HitRate = m.Mmaps.Stats().HitRate()
		}
	})
	res.Errors = cs.errors()
	res.P50Us, res.P99Us = percentilesUs(cs.lat)
	return res
}
