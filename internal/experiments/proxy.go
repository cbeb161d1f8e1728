package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"iolite/internal/apps"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/obs"
)

// The proxy experiment: clients → caching reverse proxy → origin server,
// the multi-tier scenario the ROADMAP asks for. It measures the zero-copy
// relay (IOL_read one socket, IOL_write the other) and the splice hit path
// against a conventional copying proxy, and each proxied configuration
// against clients hitting the origin directly.

// ProxyParams describes one proxy-topology run.
type ProxyParams struct {
	// Origin is the origin server configuration.
	Origin ServerConfig
	// Mode is the proxy data path. Ignored when Direct.
	Mode apps.ProxyMode
	// Direct bypasses the proxy tier: clients dial the origin.
	Direct bool

	// Docs static documents of DocBytes each make up the workload
	// (defaults 8 × 64 KB); requests sample them uniformly, so after one
	// cold pass the proxy serves everything from its cache.
	Docs     int
	DocBytes int64

	Clients        int
	ClientMachines int
	Persistent     bool
	Tss            int

	// Offload enables LSO/GRO segment offload on every machine in the
	// topology — serving tier, origin, and the client hosts (clients
	// must run the same delayed-ack policy for the economy to show).
	Offload bool

	Warmup  time.Duration
	Measure time.Duration
	Seed    int64

	// Obs, when set, traces requests through the serving tier.
	Obs *obs.Collector
}

// ProxyResult is one proxy run's outcome, including the charged-cost
// counters the figure quantifies: bytes of copy work priced anywhere in
// the simulation and the serving tier's checksum-cache hit rate.
type ProxyResult struct {
	Label    string
	Mbps     float64
	Requests int64
	Errors   int64
	Aborted  int64
	// HitRate is the proxy cache hit rate (1 when Direct is meaningless: 0).
	HitRate float64
	// CopiedMB is the copy work charged during measurement, in megabytes.
	CopiedMB float64
	// CksumHitRate is the serving machine's checksum-cache hit rate during
	// measurement (0 when the machine has no checksum cache).
	CksumHitRate float64
	// ServerCPUUtil is the serving tier's (proxy or origin) CPU utilization.
	ServerCPUUtil float64
	// PktsPerReq is the serving tier's transmitted data segments per
	// request and SegFill their mean payload fill versus the MSS — the
	// packet-economy meters. They cover everything the serving machine
	// transmits: client responses plus, for a proxy, the small
	// origin-fetch requests its cache misses send upstream (negligible
	// once the cache is warm).
	PktsPerReq float64
	SegFill    float64
	// SegsPerReq is the serving tier's MSS-granular wire chunks per
	// request (== PktsPerReq without offload) and AcksPerReq the ack
	// packets per request across the serving tier and the client hosts —
	// the ack stream pkts/req alone undercounts.
	SegsPerReq float64
	AcksPerReq float64
	// SyscallsPerReq is the kernel crossings charged per request during
	// measurement, topology-wide — the submission-ring meter.
	SyscallsPerReq float64
	// P50Us / P99Us are client-observed request latency percentiles over
	// the measure window, in microseconds.
	P50Us float64
	P99Us float64
}

// RunProxy executes one proxy-topology experiment.
func RunProxy(pp ProxyParams) ProxyResult {
	orDefault(&pp.Docs, 8)
	orDefault(&pp.DocBytes, 64<<10)
	orDefault(&pp.Clients, 32)
	orDefault(&pp.ClientMachines, 4)
	orDefault(&pp.Tss, 64<<10)
	orDefault(&pp.Warmup, 500*time.Millisecond)
	orDefault(&pp.Measure, 2*time.Second)

	w := newWorld(pp.Obs, pp.Warmup, pp.Measure)
	defer w.eng.Close()

	// Origin tier.
	origin := w.machine(originMachineConfig(pp.Origin, 0, pp.Offload))
	originLst := netsim.NewListener(origin.Host)
	srvObs := pp.Obs
	if !pp.Direct {
		srvObs = nil // the proxy fronts the topology; trace there
	}
	srv := httpd.NewServer(httpd.Config{
		Kind:     pp.Origin.Kind,
		Machine:  origin,
		Listener: originLst,
		Obs:      srvObs,
	})
	w.track(srv)
	paths := make([]string, pp.Docs)
	for i := range paths {
		paths[i] = fmt.Sprintf("/doc%d", i)
		origin.FS.Create(paths[i], pp.DocBytes)
	}

	// Proxy tier (skipped when Direct). The proxy machine runs the IO-Lite
	// kernel with the checksum cache for the reference modes; the copying
	// proxy is a conventional machine.
	var px *apps.Proxy
	frontLst := originLst
	serveMachine := origin
	refFront := pp.Origin.Kind.Lite()
	if !pp.Direct {
		proxy := w.machine(kernel.Config{
			ChecksumCache: pp.Mode.RefMode(),
			Offload:       pp.Offload,
		})
		proxyLst := netsim.NewListener(proxy.Host)
		originLink := netsim.NewLink(w.eng, proxy.Host, origin.Host, 100_000_000, 100*time.Microsecond)
		px = apps.NewProxy(apps.ProxyConfig{
			Mode:       pp.Mode,
			Machine:    proxy,
			Listener:   proxyLst,
			Origin:     originLst,
			OriginLink: originLink,
			OriginRef:  pp.Origin.Kind.Lite(),
			Tss:        pp.Tss,
			Obs:        pp.Obs,
		})
		w.track(px)
		frontLst = proxyLst
		serveMachine = proxy
		refFront = pp.Mode.RefMode()
	}

	// Client tier, dialing whichever machine fronts the topology.
	cs := w.spawnClients(clientTier{
		Machines: pp.ClientMachines, Clients: pp.Clients,
		Front: serveMachine.Host, Listener: frontLst, Offload: pp.Offload,
		Tss: pp.Tss, RefServer: refFront, Persistent: pp.Persistent, Seed: pp.Seed,
	}, func(rng *rand.Rand) string { return paths[rng.Intn(len(paths))] })

	w.sample("active-spans", func() float64 { return float64(pp.Obs.ActiveSpans()) })
	if px != nil {
		w.sample("proxy-hit-rate", func() float64 { return px.Stats().HitRate() })
	}

	var res ProxyResult
	if pp.Direct {
		res.Label = pp.Origin.Label() + " direct"
	} else {
		res.Label = pp.Origin.Label() + " " + pp.Mode.String()
	}
	if pp.Offload {
		res.Label += " offl"
	}
	w.run(func() {
		// The serving tier's request, byte and abort counters.
		var bytes int64
		if px != nil {
			ps := px.Stats()
			res.Requests, res.Aborted, res.HitRate, bytes = ps.Requests, ps.Aborted, ps.HitRate(), ps.BytesOut
		} else {
			ss := srv.Stats()
			res.Requests, res.Aborted, bytes = ss.Requests, ss.Aborted, ss.TotalBytes
		}
		res.Mbps = float64(bytes) * 8 / pp.Measure.Seconds() / 1e6
		costs := w.costs.Stats()
		res.CopiedMB = float64(costs.CopiedBytes) / (1 << 20)
		if ck := serveMachine.CkCache; ck != nil {
			res.CksumHitRate = ck.Stats().HitRate()
		}
		res.ServerCPUUtil = serveMachine.CPU().Utilization()
		st := serveMachine.Host.Stats()
		acks := st.AcksOut
		for _, h := range cs.hosts {
			acks += h.Stats().AcksOut
		}
		if res.Requests > 0 {
			res.PktsPerReq = float64(st.PktsOut) / float64(res.Requests)
			res.SegsPerReq = float64(st.SegsOut) / float64(res.Requests)
			res.AcksPerReq = float64(acks) / float64(res.Requests)
			res.SyscallsPerReq = float64(costs.Syscalls) / float64(res.Requests)
		}
		res.SegFill = serveMachine.Host.MeanSegFill()
	})
	res.Errors = cs.errors()
	res.P50Us, res.P99Us = percentilesUs(cs.lat)
	return res
}

// proxyKinds is the four-way server comparison of the proxy figure.
var proxyKinds = []ServerConfig{CfgFlashLite, CfgFlashLiteSplice, CfgFlash, CfgApache}

// FigProxy — the caching reverse-proxy tier: aggregate client bandwidth
// for each origin server kind served directly and through the three proxy
// data paths. The notes quantify the per-mode charged copy work and the
// proxy's checksum-cache hit rate (all requests after the cold pass are
// cache hits, so the proxy tier's data path dominates).
func FigProxy(opt Options) *Table {
	t := &Table{
		Title:   "Proxy: zero-copy caching reverse proxy vs copying proxy (Mb/s)",
		XLabel:  "origin server",
		Columns: []string{"direct", "proxy-copy", "proxy-zc", "proxy-splice", "proxy-zc offl"},
	}
	warm, meas := 1*time.Second, 3*time.Second
	if opt.Quick {
		warm, meas = 500*time.Millisecond, 1500*time.Millisecond
	}
	modes := []apps.ProxyMode{apps.ProxyCopy, apps.ProxyZeroCopy, apps.ProxySplice}
	for _, sc := range proxyKinds {
		row := Row{Label: sc.Label()}
		direct := RunProxy(ProxyParams{
			Origin: sc, Direct: true, Warmup: warm, Measure: meas, Seed: 7, Obs: opt.Trace,
		})
		opt.progress("FigProxy %s: %.1f Mb/s (copied %.1f MB)", direct.Label, direct.Mbps, direct.CopiedMB)
		row.Values = append(row.Values, direct.Mbps)
		runOne := func(mode apps.ProxyMode, offload bool) {
			r := RunProxy(ProxyParams{
				Origin: sc, Mode: mode, Offload: offload, Warmup: warm, Measure: meas, Seed: 7, Obs: opt.Trace,
			})
			opt.progress("FigProxy %s: %.1f Mb/s (hit %.2f, copied %.1f MB, ck-hit %.2f, %.1f pkts/req, %.1f acks/req, fill %.2f, %.1f sys/req, p50 %.0fµs p99 %.0fµs)",
				r.Label, r.Mbps, r.HitRate, r.CopiedMB, r.CksumHitRate, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq, r.P50Us, r.P99Us)
			row.Values = append(row.Values, r.Mbps)
			if sc.Kind == httpd.FlashLite {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s: copied %.1f MB, proxy cksum-cache hit rate %.2f, proxy hit rate %.2f, %.1f pkts/req, %.1f acks/req, seg fill %.2f, %.1f sys/req",
					r.Label, r.CopiedMB, r.CksumHitRate, r.HitRate, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq))
			}
		}
		for _, mode := range modes {
			runOne(mode, false)
		}
		runOne(apps.ProxyZeroCopy, true)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"8 docs x 64KB, 32 clients, 4 machines; proxied runs interpose a caching reverse-proxy machine",
		"copied MB = bytes of copy work charged anywhere in the topology during measurement",
		"the offl column enables LSO/GRO segment offload topology-wide: 64KB responses go",
		"out as one charged super-segment and clients ack every 2nd event, not every MSS")
	return t
}
