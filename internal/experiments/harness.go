package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"iolite/internal/fcgi"
	"iolite/internal/httpd"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
)

// The shared harness every runner builds its topology on: one simulated
// world with its measurement window, the HTTP client tier of the web and
// proxy topologies, and the closed-loop requester driver and document app
// of the fcgi topologies.

// world is one simulated testbed: the engine, the cost model every
// machine shares, the optional trace collector, and the warmup/measure
// window.
type world struct {
	eng     *sim.Engine
	costs   *sim.CostModel
	obs     *obs.Collector
	warm    sim.Time // measurement starts
	end     sim.Time // measurement ends
	measure time.Duration
	// reset holds every meter zeroed at the warmup boundary.
	reset obs.ResetSet
}

func newWorld(col *obs.Collector, warmup, measure time.Duration) *world {
	w := &world{
		eng:     sim.New(),
		costs:   sim.DefaultCosts(),
		obs:     col,
		warm:    sim.Time(warmup),
		end:     sim.Time(warmup + measure),
		measure: measure,
	}
	if col != nil {
		col.Attach(w.eng, w.costs)
	}
	w.reset.Add(w.costs, col)
	return w
}

// run executes the world: at the warmup boundary onWarm snapshots the
// runner's cumulative counters and every meter in w.reset is zeroed; at
// the end of the window onEnd reads the measurement.
func (w *world) run(onWarm, onEnd func()) {
	w.eng.At(w.warm, func() {
		onWarm()
		w.reset.Reset()
	})
	w.eng.At(w.end, onEnd)
	w.eng.Run()
}

// sample registers a trace sampler read every simulated millisecond until
// the window ends (no-op without a collector).
func (w *world) sample(name string, fn func() float64) {
	w.obs.SampleEvery(name, sim.Duration(time.Millisecond), w.end, func(sim.Time) float64 { return fn() })
}

// orDefault sets an unset (zero or negative) parameter to its default.
func orDefault[T ~int | ~int64](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// kPerSec converts a count over the measure window to thousands per second.
func (w *world) kPerSec(n int64) float64 {
	return float64(n) / w.measure.Seconds() / 1e3
}

// percentilesUs reads a latency histogram's p50 and p99 in microseconds.
func percentilesUs(h *obs.Histogram) (p50, p99 float64) {
	return float64(h.Quantile(0.50)) / 1e3, float64(h.Quantile(0.99)) / 1e3
}

// clientTier is the closed-loop HTTP client population of the web and
// proxy topologies: Clients clients spread round-robin over Machines
// client hosts, each host on its own 100 Mb/s link to Front.
type clientTier struct {
	Machines, Clients int
	Front             *netsim.Host
	Listener          *netsim.Listener
	// Delay is added to each link's 100 µs one-way delay (the WAN delay
	// routers of Figure 12).
	Delay time.Duration
	// Offload turns on segment offload on the client hosts.
	Offload    bool
	Tss        int
	RefServer  bool
	Persistent bool
	// Seed seeds client c's request sampler with Seed + c·7919.
	Seed int64
}

// clients is a running client tier.
type clients struct {
	hosts []*netsim.Host
	stats []httpd.ClientStats
	lat   *obs.Histogram
}

// spawnClients builds the client tier's hosts and links and starts its
// clients; each draws its next path from next until the window ends.
func (w *world) spawnClients(ct clientTier, next func(rng *rand.Rand) string) *clients {
	cs := &clients{
		hosts: make([]*netsim.Host, ct.Machines),
		stats: make([]httpd.ClientStats, ct.Clients),
		lat:   obs.NewHistogram(),
	}
	links := make([]*netsim.Link, ct.Machines)
	for i := range links {
		cs.hosts[i] = netsim.NewHost(w.eng, w.costs, fmt.Sprintf("client%d", i), false, nil, nil)
		if ct.Offload {
			cs.hosts[i].SetOffload(true)
		}
		links[i] = netsim.NewLink(w.eng, cs.hosts[i], ct.Front, 100_000_000, ct.Delay+100*time.Microsecond)
	}
	for c := 0; c < ct.Clients; c++ {
		c := c
		rng := rand.New(rand.NewSource(ct.Seed + int64(c)*7919))
		cfg := httpd.ClientConfig{
			Host:       cs.hosts[c%ct.Machines],
			Link:       links[c%ct.Machines],
			Listener:   ct.Listener,
			Tss:        ct.Tss,
			RefServer:  ct.RefServer,
			Persistent: ct.Persistent,
			Lat:        cs.lat,
			LatFrom:    w.warm,
		}
		w.eng.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			httpd.RunClient(p, cfg, func() (string, bool) {
				if p.Now() >= w.end {
					return "", false
				}
				return next(rng), true
			}, &cs.stats[c])
		})
	}
	return cs
}

// errors sums the clients' failed requests.
func (cs *clients) errors() int64 {
	var n int64
	for i := range cs.stats {
		n += cs.stats[i].Errors
	}
	return n
}

// requesters is one closed-loop population driving an fcgi pool. Each
// loop issues a request, finishes its span, records the latency of
// requests started after warmup, thinks, and repeats until the window
// ends.
type requesters struct {
	w          *world
	pool       *fcgi.WorkerPool
	kind       string // span kind
	params     []byte
	idempotent bool
	// think is the pause after each completion.
	think time.Duration
	// retry is the pause after a failed request before the next one; 0
	// ends the loop at its first failure. Sheds follow spawn's shedPause.
	retry time.Duration
	// staggered loops sleep their spawn offset before the first request.
	staggered bool
	// lat, when set, receives the latency of every completion that
	// started after warmup.
	lat *obs.Histogram

	done, failed, attempts int64
	// warmDone / warmAttempts are the counts at the warmup boundary.
	warmDone, warmAttempts int64
}

// spawn starts one loop as proc name, sending requests for tenant ("" is
// untenanted). A staggered population's loop first sleeps offset. With
// shedPause > 0 an admission shed is not a failure: the loop sleeps
// shedPause and tries again.
func (r *requesters) spawn(name, tenant string, offset, shedPause time.Duration) {
	r.w.eng.Go(name, func(p *sim.Proc) {
		if r.staggered {
			p.Sleep(offset)
		}
		for p.Now() < r.w.end {
			start := p.Now()
			r.attempts++
			sp := r.w.obs.Start(r.kind, start)
			if sp != nil {
				p.SetAttrib(sp)
			}
			resp, err := r.pool.Do(p, fcgi.Request{
				Params: r.params, Span: sp, Tenant: tenant, Idempotent: r.idempotent,
			})
			if sp != nil {
				p.SetAttrib(nil)
			}
			if err != nil {
				sp.Abandon()
				if shedPause > 0 && fcgi.IsShed(err) {
					p.Sleep(shedPause)
					continue
				}
				r.failed++
				if r.retry == 0 {
					return
				}
				p.Sleep(r.retry)
				continue
			}
			sp.Finish(p.Now())
			resp.Release()
			r.done++
			if r.lat != nil && start >= r.w.warm {
				r.lat.Observe(int64(p.Now().Sub(start)))
			}
			if r.think > 0 {
				p.Sleep(r.think)
			}
		}
	})
}

// snapshot records the warmup-boundary counts.
func (r *requesters) snapshot() { r.warmDone, r.warmAttempts = r.done, r.attempts }

// measured is the completions inside the measure window.
func (r *requesters) measured() int64 { return r.done - r.warmDone }

// docApp is the worker app of every fcgi runner: request parse/dispatch
// work, the off-CPU backend wait, then a cached fcgiDoc document — a
// sealed aggregate in the worker's own ACL'd pool (ref mode) or private
// bytes (copy mode).
type docApp struct {
	ref   bool
	doc   int64
	delay time.Duration
	aggs  *fcgi.AggCache
	raws  *fcgi.RawCache
}

func newDocApp(ref bool, doc int64, delay time.Duration) *docApp {
	return &docApp{ref: ref, doc: doc, delay: delay, aggs: fcgi.NewAggCache(), raws: fcgi.NewRawCache()}
}

// serve is the pool handler.
func (a *docApp) serve(p *sim.Proc, w *fcgi.Worker, req *fcgi.ServerRequest) {
	w.M.Host.Use(p, 20*time.Microsecond) // request parse/dispatch work
	p.Sleep(a.delay)                     // the backend wait
	gen := func() []byte { return fcgiDoc(a.doc) }
	if a.ref {
		req.Reply(p, a.aggs.GetOrPack(p, w, a.doc, gen), 0)
		return
	}
	req.ReplyBytes(p, a.raws.GetOrGen(w, a.doc, gen), 0)
}

// retire releases a retired worker's cached documents (PoolConfig.OnRetire).
func (a *docApp) retire(w *fcgi.Worker) {
	a.aggs.Drop(w)
	a.raws.Drop(w)
}

// docParams is the request params every fcgi runner sends.
func docParams(doc int64) []byte { return []byte(fmt.Sprintf("/doc/%d", doc)) }

// fcgiDoc deterministically generates the n-byte document every fcgi
// runner serves — one pattern, so they all measure the same workload by
// construction.
func fcgiDoc(n int64) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*13 + 5)
	}
	return d
}
