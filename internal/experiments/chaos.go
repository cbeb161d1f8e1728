package experiments

import (
	"fmt"
	"slices"
	"time"

	"iolite/internal/apps"
	"iolite/internal/fcgi"
	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The chaos experiment: the zero-copy claims under failure. A depth-D
// sock-local ref fcgi tier runs its closed loop while the loopback wire
// drops data segments (netsim.FaultPlan + go-back-N recovery)
// and a killer process periodically tears a worker's channel down
// mid-flight (supervision respawns capacity; the Replay policy decides
// whether in-flight idempotent requests survive). The meters answer the
// questions the recovery layer exists for: how much goodput survives, what
// the tail pays, whether any request is lost, whether retransmission
// re-charges copies it must not, and whether any buffer reference leaks.

// ChaosParams describes one chaos run.
type ChaosParams struct {
	// Workers / Depth shape the pool (defaults 2 × 16 — the acceptance
	// topology). Requesters defaults to Workers × Depth.
	Workers    int
	Depth      int
	Requesters int
	// DocBytes sizes the response document (default 16 KB).
	DocBytes int64
	// AppDelay is the per-request off-CPU wait (default 400 µs).
	AppDelay time.Duration
	// Think is each requester's pause between completions (default 40 ms).
	// A closed loop with no think time pins the host CPU at 100% — the
	// era-faithful per-packet costs make a 16 KB response ≈ 1 ms of CPU —
	// and a saturated host converts every retransmitted segment straight
	// into lost goodput, measuring only the overhead, never the recovery.
	Think time.Duration
	// LossProb is the per-data-segment drop probability on the loopback
	// wire; 0 leaves the wire reliable (and the fault-free path
	// timer-free).
	LossProb float64
	// KillEvery is the period between worker kills (0 = no kills). Kills
	// rotate round-robin over the pool and run through the whole window.
	KillEvery time.Duration
	// Replay enables the pool's idempotent replay policy; without it an
	// in-flight request on a killed worker fails with ErrWorkerDied.
	Replay bool
	// Seed drives the fault plan's deterministic PRNG (0 = default).
	Seed uint64
	// Offload enables LSO/GRO segment offload on the machine: faults are
	// then judged per MSS chunk inside super-segments, and recovery must
	// retransmit chunk-granular holes (kernel.Config.Offload).
	Offload bool

	Warmup  time.Duration
	Measure time.Duration

	// Obs, when set, traces every request — retransmit stalls surface as
	// a distinct span phase, and the samplers track in-flight depth and
	// cumulative retransmissions.
	Obs *obs.Collector
}

// ChaosResult is one run's outcome.
type ChaosResult struct {
	Label string
	// GoodputKReq is completed requests per second, in thousands, over the
	// measure window.
	GoodputKReq float64
	Requests    int64
	// Failed counts requests that returned an error anywhere in the run —
	// the acceptance criterion demands 0 with replay on.
	Failed   int64
	Replays  int64
	Reroutes int64
	Respawns int64
	// RetransSegs / RetransPct meter recovery overhead: segments re-sent,
	// and retransmitted bytes as a fraction of all data bytes out.
	RetransSegs int64
	RetransPct  float64
	// CopiedKBPerReq is charged copy work per completed request — the pin
	// that retransmission and replay must not inflate beyond the clean
	// run's figure (sock-local ref payloads cross by reference; only
	// framing and request params are copied).
	CopiedKBPerReq float64
	// DroppedSegs / CorruptedSegs are the plan's injection counts (the
	// plan injects loss only, so CorruptedSegs reads 0).
	DroppedSegs   int64
	CorruptedSegs int64
	// LeakPages counts live pages beyond the per-pool open-chunk allowance
	// after the run drains — nonzero means an abandoned delivery kept a
	// *core.Agg reference.
	LeakPages int
	// P50Us / P99Us are requester-observed latency percentiles over the
	// measure window, in microseconds.
	P50Us float64
	P99Us float64
}

// RunChaos executes one chaos run on the sock-local ref topology.
func RunChaos(cp ChaosParams) ChaosResult {
	orDefault(&cp.Workers, 2)
	orDefault(&cp.Depth, 16)
	orDefault(&cp.Requesters, cp.Workers*cp.Depth)
	orDefault(&cp.DocBytes, 16<<10)
	orDefault(&cp.AppDelay, 400*time.Microsecond)
	orDefault(&cp.Think, 40*time.Millisecond)
	orDefault(&cp.Warmup, 100*time.Millisecond)
	orDefault(&cp.Measure, 500*time.Millisecond)

	w := newWorld(cp.Obs, cp.Warmup, cp.Measure)
	defer w.eng.Close()
	// The checksum cache is load-bearing under faults: a retransmitted ref
	// segment re-checksums with one lookup per piece instead of re-paying
	// the full pass, so recovery overhead is wire bytes, not CPU.
	m := w.machine(kernel.Config{ChecksumCache: true, Offload: cp.Offload})
	srv := m.NewProcess("chaos-srv", 2<<20)
	tr := fcgi.NewLoopbackTransport(m, srv, true)

	var plan *netsim.FaultPlan
	if cp.LossProb > 0 {
		plan = &netsim.FaultPlan{DropProb: cp.LossProb, Seed: cp.Seed}
		tr.Link.SetFaultPlan(plan)
	}

	app := newDocApp(true, cp.DocBytes, cp.AppDelay)
	pool := fcgi.NewWorkerPool(fcgi.PoolConfig{
		Machine:   m,
		Server:    srv,
		Workers:   cp.Workers,
		Depth:     cp.Depth,
		Ref:       true,
		Transport: tr,
		Replay:    cp.Replay,
		Name:      "cw",
		Obs:       cp.Obs,
		OnRetire:  app.retire,
		Handler:   app.serve,
	})

	// A failed request pauses before the next attempt — pool.Do fails fast
	// when every worker is briefly broken, and an unpaced retry loop would
	// spin at one sim instant, starving the respawn that fixes it.
	reqs := &requesters{
		w: w, pool: pool, kind: "chaos", params: docParams(cp.DocBytes), idempotent: true,
		think: cp.Think, retry: 100 * time.Microsecond, lat: obs.NewHistogram(),
	}
	w.track(reqs)
	for i := 0; i < cp.Requesters; i++ {
		reqs.spawn(fmt.Sprintf("req%d", i), "", 0, 0)
	}
	// Samplers: mux occupancy, open spans, and cumulative retransmitted
	// segments — the recovery story as counter tracks.
	w.sample("pool-inflight", func() float64 { return float64(pool.InFlight()) })
	w.sample("active-spans", func() float64 { return float64(cp.Obs.ActiveSpans()) })
	w.sample("retrans-segs", func() float64 { return float64(m.Host.Stats().RetransSegs) })
	if cp.KillEvery > 0 {
		w.eng.Go("killer", func(p *sim.Proc) {
			k := 0
			for {
				p.Sleep(cp.KillEvery)
				if p.Now() >= w.end {
					return
				}
				victim := pool.Workers()[k%cp.Workers]
				k++
				victim.Conn().Close(p)
			}
		})
	}

	res := ChaosResult{Label: chaosLabel(cp)}
	w.run(func() {
		res.Requests = reqs.done
		res.GoodputKReq = w.kPerSec(res.Requests)
		if res.Requests > 0 {
			res.CopiedKBPerReq = float64(w.costs.Stats().CopiedBytes) / float64(res.Requests) / (1 << 10)
		}
		st := m.Host.Stats()
		res.RetransSegs = st.RetransSegs
		if st.BytesOut > 0 {
			res.RetransPct = float64(st.RetransBytes) / float64(st.BytesOut)
		}
	})

	res.Failed = reqs.failed
	res.Replays = pool.Replays()
	res.Reroutes = pool.Reroutes()
	res.Respawns = pool.Respawns()
	if plan != nil {
		res.DroppedSegs, res.CorruptedSegs = plan.Stats()
	}
	res.LeakPages = leakPages(srv.Pool.LivePages())
	for _, wk := range pool.Workers() {
		res.LeakPages += leakPages(wk.Proc.Pool.LivePages())
	}
	res.P50Us, res.P99Us = percentilesUs(reqs.lat)
	return res
}

// leakPages converts one pool's live-page count to leaked pages: anything
// beyond the open pack chunk's allowance.
func leakPages(live int) int {
	if live > mem.PagesPerChunk {
		return live - mem.PagesPerChunk
	}
	return 0
}

func chaosLabel(cp ChaosParams) string {
	l := fmt.Sprintf("loss=%.1f%%", cp.LossProb*100)
	if cp.KillEvery > 0 {
		l += fmt.Sprintf(" kill=%v", cp.KillEvery)
		if cp.Replay {
			l += "+replay"
		}
	}
	if cp.Offload {
		l += " offl"
	}
	return l
}

// StaleChaosResult is the origin-outage leg's outcome: the proxy-tier half
// of the degradation story, where requests are answered from an expired
// cache entry while the origin is down.
type StaleChaosResult struct {
	Requests    int64
	StaleServed int64
	Aborted     int64
}

// RunStaleChaos runs the proxy degradation leg: a ServeStale caching proxy
// in front of an origin that goes down mid-run. Before the outage, TTL
// expiry refreshes entries from the origin; after it, expired entries are
// served stale instead of failing the client.
func RunStaleChaos() StaleChaosResult {
	eng := sim.New()
	defer eng.Close()
	costs := sim.DefaultCosts()

	origin := kernel.NewMachine(eng, costs, kernel.Config{ChecksumCache: true})
	originLst := netsim.NewListener(origin.Host)
	osrv := httpd.NewServer(httpd.Config{Kind: httpd.FlashLite, Machine: origin, Listener: originLst})
	f := origin.FS.Create("/doc.html", 16<<10)
	osrv.PrimeOpen("/doc.html", f)

	pm := kernel.NewMachine(eng, costs, kernel.Config{ChecksumCache: true})
	plst := netsim.NewListener(pm.Host)
	olink := netsim.NewLink(eng, pm.Host, origin.Host, 100_000_000, 100*time.Microsecond)
	px := apps.NewProxy(apps.ProxyConfig{
		Mode:         apps.ProxyZeroCopy,
		Machine:      pm,
		Listener:     plst,
		Origin:       originLst,
		OriginLink:   olink,
		OriginRef:    true,
		TTL:          5 * time.Millisecond,
		ServeStale:   true,
		Retries:      1,
		RetryBackoff: 500 * time.Microsecond,
	})

	client := netsim.NewHost(eng, costs, "client", false, nil, nil)
	clink := netsim.NewLink(eng, client, pm.Host, 100_000_000, 100*time.Microsecond)
	end := sim.Time(100 * time.Millisecond)
	eng.Go("client", func(p *sim.Proc) {
		var st httpd.ClientStats
		httpd.RunClient(p, httpd.ClientConfig{
			Host: client, Link: clink, Listener: plst, Tss: 64 << 10, RefServer: true,
		}, func() (string, bool) {
			if p.Now() >= end {
				return "", false
			}
			p.Sleep(time.Millisecond)
			return "/doc.html", true
		}, &st)
	})
	eng.At(sim.Time(40*time.Millisecond), func() {
		// The outage: every later refetch finds the origin unreachable.
		originLst.Close()
	})
	eng.Run()

	st := px.Stats()
	return StaleChaosResult{Requests: st.Requests, StaleServed: st.StaleServed, Aborted: st.Aborted}
}

// chaosFigConfigs is the column set: kills off / kills without replay /
// kills with replay, each swept over the loss-rate rows.
var chaosFigConfigs = []struct {
	name      string
	killEvery time.Duration
	replay    bool
	offload   bool
}{
	{"no kills", 0, false, false},
	{"kills", 20 * time.Millisecond, false, false},
	{"kills+replay", 20 * time.Millisecond, true, false},
	{"kills+replay offl", 20 * time.Millisecond, true, true},
}

// FigChaos — goodput under injected failure: completed requests per second
// versus segment loss rate, with and without worker kills, with and
// without idempotent replay. The notes carry the tail and recovery meters
// (p99, failed vs replayed, retransmit overhead, leak check) and the
// proxy-tier origin-outage leg (stale-served vs failed requests).
func FigChaos(opt Options) *Table {
	t := &Table{Title: "Chaos: goodput under segment loss × worker kills × replay (kreq/s)", XLabel: "loss %"}
	for _, c := range chaosFigConfigs {
		t.Columns = append(t.Columns, c.name)
	}
	warm, meas := pick(opt, 100*time.Millisecond, 50*time.Millisecond), pick(opt, 500*time.Millisecond, 250*time.Millisecond)
	rates := pick(opt, []float64{0, 0.005, 0.01, 0.05}, []float64{0, 0.01})
	rows := labels(rates, func(loss float64) string { return fmt.Sprintf("%.1f", loss*100) })
	res := sweep(opt, t, rows, func(r, c int) ChaosParams {
		cfg := chaosFigConfigs[c]
		return ChaosParams{LossProb: rates[r], KillEvery: cfg.killEvery, Replay: cfg.replay, Offload: cfg.offload,
			Warmup: warm, Measure: meas, Obs: opt.Trace}
	}, RunChaos, func(r ChaosResult) float64 { return r.GoodputKReq })
	for c, r := range res[slices.Index(rates, 0.01)] {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s @%s: p99 %.2fms, failed %d, replays %d, reroutes %d, respawns %d, retrans %.2f%% (%d segs), copied %.2f KB/req, leaked pages %d",
			chaosFigConfigs[c].name, r.Label, r.P99Us/1e3, r.Failed, r.Replays, r.Reroutes, r.Respawns,
			r.RetransPct*100, r.RetransSegs, r.CopiedKBPerReq, r.LeakPages))
	}
	sres := RunStaleChaos()
	t.Notes = append(t.Notes,
		fmt.Sprintf("origin-outage leg (ServeStale proxy): %d requests, %d stale-served, %d failed",
			sres.Requests, sres.StaleServed, sres.Aborted),
		"sock-local ref fcgi, 2 workers × depth 16, 16KB docs, 400µs app wait, 40ms client think",
		"loss is injected per data segment on the loopback wire;",
		"go-back-N retransmission re-sends stored refs (no copy re-charge)",
		"kills close a worker channel every 20ms; supervision respawns capacity,",
		"and with replay on, in-flight idempotent requests re-dispatch instead of failing")
	return t
}
