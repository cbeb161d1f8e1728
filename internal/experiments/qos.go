package experiments

import (
	"fmt"
	"time"

	"iolite/internal/fcgi"
	"iolite/internal/kernel"
	"iolite/internal/obs"
)

// The multi-tenant QoS study: thousands of well-behaved tenants share one
// fcgi pool over a loopback socket transport, and one adversarial heavy
// hitter floods it with zero-think closed loops. Measured: what the flood
// does to a victim's p99 (isolation), what enforcement costs when nobody
// misbehaves (overhead), and where the aggressor's excess goes (sheds).
// Enforcement is the pool's admission control (per-tenant rate bucket +
// in-flight share) together with its within-weight routing.

// QoSParams describes one multi-tenant run.
type QoSParams struct {
	// Tenants is the well-behaved tenant population (default 1000), one
	// closed-loop requester each.
	Tenants int
	// Aggressor adds one heavy-hitter tenant driving AggressorConc
	// zero-think closed loops (default 32) that retry immediately after
	// a shed (with a jittered ~2 ms backoff so a shed storm can't wedge
	// simulated time).
	Aggressor     bool
	AggressorConc int
	// QoS enables enforcement: pool admission control (MaxShare 2,
	// ReqRate/ReqBurst below). Off, the pool is the strictly-FIFO shared
	// pool of the earlier PRs.
	QoS bool
	// ReqRate / ReqBurst are the per-unit-weight admitted requests/sec
	// and burst when QoS is on (defaults 5 and 3 — 2× a tenant's fair
	// rate at the default think time, far below the p99 sample fraction).
	ReqRate  int64
	ReqBurst int64

	// Workers / Depth shape the pool (defaults 4 and 16).
	Workers int
	Depth   int
	// DocBytes sizes the response document (default 4 KB).
	DocBytes int64
	// AppDelay is the worker's off-CPU backend wait (default 200 µs).
	AppDelay time.Duration
	// Think is each well-behaved tenant's between-requests think time
	// (default 400 ms); tenant start instants are staggered across it.
	Think time.Duration

	Warmup  time.Duration
	Measure time.Duration

	// Obs, when set, traces every request through the pool.
	Obs *obs.Collector
}

// QoSResult is one run's outcome.
type QoSResult struct {
	Label string
	// KReqPerSec is total completed requests (victims + aggressor) per
	// second, in thousands.
	KReqPerSec float64
	// VictimP50Us / VictimP99Us are the well-behaved tenants' latency
	// percentiles over the measure window, in microseconds.
	VictimP50Us float64
	VictimP99Us float64
	// VictimKReqPerSec is the well-behaved population's completion rate.
	VictimKReqPerSec float64
	// AggKReqPerSec is the aggressor's goodput (admitted and completed).
	AggKReqPerSec float64
	// AggOfferedX is the aggressor's offered load as a multiple of one
	// well-behaved tenant's fair rate (0 without an aggressor).
	AggOfferedX float64
	Requests    int64
	// Sheds / Throttles are admission refusals over the measure window
	// (in-flight share, rate bucket); ShedsPerReq normalizes by
	// completed requests.
	Sheds       int64
	Throttles   int64
	ShedsPerReq float64
	CPUUtil     float64
}

// aggTenant is the heavy hitter's tenant name.
const aggTenant = "aggressor"

// RunQoS executes one multi-tenant QoS experiment.
func RunQoS(fp QoSParams) QoSResult {
	orDefault(&fp.Tenants, 1000)
	orDefault(&fp.AggressorConc, 32)
	orDefault(&fp.Workers, 4)
	orDefault(&fp.Depth, 16)
	orDefault(&fp.DocBytes, 4<<10)
	orDefault(&fp.AppDelay, 200*time.Microsecond)
	orDefault(&fp.Think, 400*time.Millisecond)
	orDefault(&fp.Warmup, 300*time.Millisecond)
	orDefault(&fp.Measure, 1200*time.Millisecond)
	orDefault(&fp.ReqRate, 5)
	orDefault(&fp.ReqBurst, 3)

	w := newWorld(fp.Obs, fp.Warmup, fp.Measure)
	defer w.eng.Close()
	m := w.machine(kernel.Config{})
	srv := m.NewProcess("qos-srv", 2<<20)
	m.Host.SetOffload(true)

	var qcfg *fcgi.QoSConfig
	tenants := obs.NewTenants()
	if fp.QoS {
		qcfg = &fcgi.QoSConfig{
			MaxShare: 2,
			ReqRate:  fp.ReqRate,
			ReqBurst: fp.ReqBurst,
			Meters:   tenants,
		}
	}

	// The pool rides a loopback socket transport (not a pipe) so the
	// netsim send pump is in the measured path.
	transport := fcgi.NewLoopbackTransport(m, srv, true, 2<<20)
	app := newDocApp(true, fp.DocBytes, fp.AppDelay)
	pool := fcgi.NewWorkerPool(fcgi.PoolConfig{
		Machine:         m,
		Server:          srv,
		Workers:         fp.Workers,
		Depth:           fp.Depth,
		Ref:             true,
		Transport:       transport,
		TypicalResponse: int(fp.DocBytes),
		Name:            "qw",
		Obs:             fp.Obs,
		QoS:             qcfg,
		Handler:         app.serve,
	})
	params := docParams(fp.DocBytes)

	// The well-behaved population: one closed loop per tenant, thinking
	// fp.Think between requests, start instants staggered across one
	// think interval so the population doesn't arrive as a phased burst.
	// A tenant over its allowance just thinks again; anything else is a
	// real failure.
	victims := &requesters{
		w: w, pool: pool, kind: "qos", params: params, idempotent: true,
		think: fp.Think, staggered: true, lat: obs.NewHistogram(),
	}
	for i := 0; i < fp.Tenants; i++ {
		tenant := fmt.Sprintf("t%04d", i)
		offset := time.Duration(int64(fp.Think) * int64(i) / int64(fp.Tenants))
		victims.spawn(tenant, tenant, offset, fp.Think)
	}

	// The heavy hitter: AggressorConc zero-think loops under ONE tenant
	// identity, retrying immediately on success and after a short backoff
	// on a shed (the backoff consumes simulated time, so an admission-
	// control wall can't spin the engine at one instant).
	aggr := &requesters{w: w, pool: pool, kind: "qos-agg", params: params, idempotent: true}
	if fp.Aggressor {
		for i := 0; i < fp.AggressorConc; i++ {
			// Per-loop backoff jitter: without it all the loops shed in
			// lockstep and their admission attempts arrive as periodic
			// bursts the victims' tail can feel.
			backoff := 2*time.Millisecond + time.Duration(i)*67*time.Microsecond
			aggr.spawn(fmt.Sprintf("agg%d", i), aggTenant, 0, backoff)
		}
	}

	label := "uniform"
	if fp.Aggressor {
		label = "aggressor"
	}
	enf := "off"
	if fp.QoS {
		enf = "on"
	}
	res := QoSResult{Label: fmt.Sprintf("%s qos=%s", label, enf)}
	// Every admission refusal lands on a tenant's meters, so their
	// windowed totals are the pool's sheds and throttles in the window.
	w.track(victims, aggr, tenants)
	w.run(func() {
		vic, agg := victims.done, aggr.done
		res.Requests = vic + agg
		res.KReqPerSec = w.kPerSec(vic + agg)
		res.VictimKReqPerSec = w.kPerSec(vic)
		res.AggKReqPerSec = w.kPerSec(agg)
		_, res.Sheds, res.Throttles = tenants.Totals()
		if res.Requests > 0 {
			res.ShedsPerReq = float64(res.Sheds+res.Throttles) / float64(res.Requests)
		}
		if vic > 0 && fp.Aggressor {
			secs := fp.Measure.Seconds()
			fair := float64(vic) / float64(fp.Tenants) / secs // one tenant's fair req/s
			offered := float64(aggr.attempts) / secs
			res.AggOfferedX = offered / fair
		}
		res.CPUUtil = m.CPU().Utilization()
	})
	if failed := victims.failed + aggr.failed; failed > 0 {
		panic(fmt.Sprintf("experiments: RunQoS had %d non-shed failures", failed))
	}
	res.VictimP50Us, res.VictimP99Us = percentilesUs(victims.lat)
	return res
}

// FigQoS — multi-tenant isolation under an adversarial heavy hitter:
// victim p99 across the four legs of {uniform, aggressor} × {QoS off,
// QoS on}, with the notes carrying the isolation verdict (victim p99
// restored to within a fraction of its no-aggressor baseline), the
// enforcement overhead on the uniform legs, and where the aggressor's
// excess went.
func FigQoS(opt Options) *Table {
	t := &Table{
		Title:   "QoS: victim p99 (µs) under a heavy hitter, enforcement off vs on",
		XLabel:  "population",
		Columns: []string{"uniform off", "uniform on", "aggr off", "aggr on"},
	}
	tenants := 1000
	warm, meas := 300*time.Millisecond, 1200*time.Millisecond
	if opt.Quick {
		tenants = 300
		warm, meas = 200*time.Millisecond, 600*time.Millisecond
	}
	legs := []struct {
		aggressor, qos bool
	}{
		{false, false}, {false, true}, {true, false}, {true, true},
	}
	row := Row{Label: fmt.Sprintf("%d+1", tenants)}
	var rs []QoSResult
	for _, leg := range legs {
		r := RunQoS(QoSParams{
			Tenants:   tenants,
			Aggressor: leg.aggressor,
			QoS:       leg.qos,
			Warmup:    warm,
			Measure:   meas,
			Obs:       opt.Trace,
		})
		opt.progress("FigQoS %s: victim p99 %.0fµs, %.2f kreq/s (agg %.2f kreq/s, sheds/req %.2f, cpu %.2f)",
			r.Label, r.VictimP99Us, r.KReqPerSec, r.AggKReqPerSec, r.ShedsPerReq, r.CPUUtil)
		row.Values = append(row.Values, r.VictimP99Us)
		rs = append(rs, r)
	}
	t.Rows = append(t.Rows, row)
	overhead := 0.0
	if rs[0].KReqPerSec > 0 {
		overhead = (rs[0].KReqPerSec - rs[1].KReqPerSec) / rs[0].KReqPerSec * 100
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("qos isolation: victim p99 %.0f → %.0f µs under aggressor (qos on), "+
			"enforcement overhead %.1f%% kreq/s, sheds/req %.2f, aggressor goodput %.2f → %.2f kreq/s",
			rs[1].VictimP99Us, rs[3].VictimP99Us, overhead,
			rs[3].ShedsPerReq, rs[2].AggKReqPerSec, rs[3].AggKReqPerSec),
		fmt.Sprintf("aggressor offered %.0f× one tenant's fair rate (conc %d, zero think)", rs[3].AggOfferedX, 32),
		"enforcement: pool admission (share bound + per-tenant rate bucket) and within-weight routing",
		fmt.Sprintf("%d tenants, %s think, 4KB ref-mode docs over loopback socket, offload on", tenants, "400ms"))
	return t
}
