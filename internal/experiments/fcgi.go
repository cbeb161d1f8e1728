package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"iolite/internal/fcgi"
	"iolite/internal/kernel"
	"iolite/internal/obs"
)

// The fcgi experiment: a server process drives an internal/fcgi worker
// pool directly — no HTTP tier — under a closed-loop population of
// requesters. Each request models a FastCGI app: parse params, wait on a
// backend (the off-CPU AppDelay), and stream a cached document back.
//
// Two studies run on it. The scaling study (FigFCGI) keeps the workers on
// in-machine pipe pairs and sweeps the two sources of concurrency: worker
// count (processes) and mux depth (in-flight requests per pipe pair).
// Copy mode serializes every response byte through the pipe FIFO; ref mode
// passes the worker's sealed aggregates by reference, so the per-request
// CPU cost collapses to framing.
//
// The LAN-tax study (FigFCGINet) moves the same pool onto each transport
// the pool supports. Three effects separate the placements:
//
//   - pipe → socket ("sock-local"): every record now rides the TCP
//     protocol path — per-segment packet work, interrupts, early demux,
//     checksums — on the same CPU. Reference payloads still cross with
//     zero copy charge.
//   - socket-local → socket-remote: the worker tier gets its own CPU
//     (scale-out), but sealed aggregates cannot cross machines by
//     reference: ref-requested payloads degrade to exactly one charged
//     copy at the machine boundary, and the wire's bandwidth and delay
//     join the path.
//   - copy vs ref: conventional payloads additionally pay the read-side
//     copy on every placement, and the staging copy on pipes.

// FCGIPlacement names a worker placement.
type FCGIPlacement string

// The measured placements.
const (
	PlacePipe       FCGIPlacement = "pipe"
	PlaceSockLocal  FCGIPlacement = "sock-local"
	PlaceSockRemote FCGIPlacement = "sock-remote"
)

// Placements lists the placements in figure order.
var Placements = []FCGIPlacement{PlacePipe, PlaceSockLocal, PlaceSockRemote}

// FCGIParams describes one fcgi run.
type FCGIParams struct {
	// Placement selects the worker transport (default pipe).
	Placement FCGIPlacement
	// Workers is the pool size N; Depth is the per-worker mux depth.
	Workers int
	Depth   int
	// Requesters is the closed-loop request population M (default
	// Workers×Depth — every mux slot occupied).
	Requesters int
	// DocBytes sizes the response document (default 16 KB).
	DocBytes int64
	// AppDelay is the per-request off-CPU wait the app models (a backend
	// query; default 400 µs). It is what concurrency hides.
	AppDelay time.Duration
	// Ref requests reference-mode response payloads (degraded to the
	// boundary copy on sock-remote).
	Ref bool
	// Ring routes every worker channel through submission rings
	// (fcgi.PoolConfig.Ring): batched record writes and coalesced reads
	// instead of one charged syscall per record and per delivery.
	Ring bool
	// Offload enables LSO/GRO segment offload on every machine in the
	// topology: super-segments charged once, coalesced receive events,
	// and delayed acks (kernel.Config.Offload).
	Offload bool

	Warmup  time.Duration
	Measure time.Duration

	// Obs, when set, traces every request through the pool — including,
	// for sock-remote, the trace id riding the record headers to the
	// worker machine and its service interval marked back on the span.
	Obs *obs.Collector
}

// FCGIResult is one run's outcome.
type FCGIResult struct {
	Label string
	// KReqPerSec is completed requests per second, in thousands.
	KReqPerSec float64
	Requests   int64
	Failures   int64
	// CopiedMB is the copy work charged during measurement across every
	// machine in the topology, in megabytes — the LAN-tax meter: ref/pipe
	// ≈ framing, ref/sock-remote ≈ one payload copy, copy modes ≥ two.
	CopiedMB float64
	// CPUUtil is the server machine's CPU utilization; WorkerCPUUtil is
	// the worker machine's (equal to CPUUtil for on-machine placements).
	CPUUtil       float64
	WorkerCPUUtil float64
	// PktsPerReq is data segments moved per completed request across every
	// host in the topology, and SegFill the mean payload fill of those
	// segments versus the MSS — the packet-economy meters. Both are 0 for
	// the pipe placement (no packets at all).
	PktsPerReq float64
	SegFill    float64
	// SegsPerReq is MSS-granular wire chunks per request (== PktsPerReq
	// without offload; with LSO one charged unit carries many chunks) and
	// AcksPerReq the ack packets per request — without them pkts/request
	// undercounts the wire by the whole ack stream.
	SegsPerReq float64
	AcksPerReq float64
	// SyscallsPerReq is the kernel crossings charged per completed request
	// across the topology — the meter the submission ring exists to lower.
	SyscallsPerReq float64
	// P50Us / P99Us are requester-observed latency percentiles over the
	// measure window, in microseconds.
	P50Us float64
	P99Us float64
}

// RunFCGI executes one fcgi experiment.
func RunFCGI(fp FCGIParams) FCGIResult {
	if fp.Placement == "" {
		fp.Placement = PlacePipe
	}
	orDefault(&fp.Workers, 4)
	orDefault(&fp.Depth, 8)
	orDefault(&fp.Requesters, fp.Workers*fp.Depth)
	orDefault(&fp.DocBytes, 16<<10)
	orDefault(&fp.AppDelay, 400*time.Microsecond)
	orDefault(&fp.Warmup, 300*time.Millisecond)
	orDefault(&fp.Measure, 1500*time.Millisecond)

	w := newWorld(fp.Obs, fp.Warmup, fp.Measure)
	defer w.eng.Close()
	m := w.machine(kernel.Config{Offload: fp.Offload})
	srv := m.NewProcess("fcgi-srv", 2<<20)

	var tr fcgi.Transport
	wm := m
	switch fp.Placement {
	case PlacePipe:
		tr = fcgi.NewPipeTransport(m, srv, fp.Ref)
	case PlaceSockLocal:
		tr = fcgi.NewLoopbackTransport(m, srv, fp.Ref)
	case PlaceSockRemote:
		tr, wm = fcgi.NewLANTransport(m, srv, fp.Ref, "wkr")
	default:
		panic("experiments: unknown placement " + string(fp.Placement))
	}

	app := newDocApp(fp.Ref, fp.DocBytes, fp.AppDelay)
	pool := fcgi.NewWorkerPool(fcgi.PoolConfig{
		Machine:   m,
		Server:    srv,
		Workers:   fp.Workers,
		Depth:     fp.Depth,
		Ref:       fp.Ref,
		Ring:      fp.Ring,
		Transport: tr,
		Name:      "fw",
		Obs:       fp.Obs,
		OnRetire:  app.retire,
		Handler:   app.serve,
	})

	reqs := &requesters{
		w: w, pool: pool, kind: string(fp.Placement), params: docParams(fp.DocBytes),
		lat: obs.NewHistogram(),
	}
	w.track(reqs)
	for i := 0; i < fp.Requesters; i++ {
		reqs.spawn(fmt.Sprintf("req%d", i), "", 0, 0)
	}
	// Periodic wheel samplers: mux occupancy and open-span population,
	// exported as counter tracks in the trace.
	w.sample("pool-inflight", func() float64 { return float64(pool.InFlight()) })
	w.sample("active-spans", func() float64 { return float64(fp.Obs.ActiveSpans()) })

	mode := "copy"
	if fp.Ref {
		mode = "ref"
	}
	if fp.Ring {
		mode += " ring"
	}
	if fp.Offload {
		mode += " offl"
	}
	res := FCGIResult{Label: fmt.Sprintf("%s %s w=%d d=%d", fp.Placement, mode, fp.Workers, fp.Depth)}
	machines := []*kernel.Machine{m}
	if wm != m {
		machines = append(machines, wm)
		w.track(wm)
	}
	w.run(func() {
		res.Requests = reqs.done
		res.KReqPerSec = w.kPerSec(res.Requests)
		costs := w.costs.Stats()
		res.CopiedMB = float64(costs.CopiedBytes) / (1 << 20)
		res.CPUUtil = m.CPU().Utilization()
		res.WorkerCPUUtil = wm.CPU().Utilization()
		var pkts, bytes, segs, acks int64
		for _, hm := range machines {
			st := hm.Host.Stats()
			pkts, bytes = pkts+st.PktsOut, bytes+st.BytesOut
			segs, acks = segs+st.SegsOut, acks+st.AcksOut
		}
		if res.Requests > 0 {
			res.PktsPerReq = float64(pkts) / float64(res.Requests)
			res.SegsPerReq = float64(segs) / float64(res.Requests)
			res.AcksPerReq = float64(acks) / float64(res.Requests)
			res.SyscallsPerReq = float64(costs.Syscalls) / float64(res.Requests)
		}
		if pkts > 0 {
			// Fill measures against the charged unit's capacity: the
			// super-segment under offload, one MSS otherwise.
			res.SegFill = float64(bytes) / (float64(pkts) * float64(m.Host.SegCapacity()))
		}
	})
	res.Failures = reqs.failed
	res.P50Us, res.P99Us = percentilesUs(reqs.lat)
	return res
}

// FigFCGI — worker-pool scaling over the fcgi subsystem on pipe pairs:
// completed requests per second versus worker count, for copy- and
// reference-mode records at mux depth 1 (one request per pipe pair at a
// time — the old ad-hoc CGI protocol's shape) and depth 8 (multiplexed).
// The notes quantify the charged copy work: ref mode's stays flat framing
// bytes while copy mode's scales with every response byte moved.
func FigFCGI(opt Options) *Table {
	t := &Table{Title: "FCGI: worker-pool scaling, copy vs ref records (kreq/s)", XLabel: "workers",
		Columns: []string{"copy d=1", "copy d=8", "ref d=1", "ref d=8"}}
	warm, meas := pick(opt, 300*time.Millisecond, 200*time.Millisecond), pick(opt, 1500*time.Millisecond, 750*time.Millisecond)
	points := pick(opt, []int{1, 2, 4, 8}, []int{1, 4})
	res := sweep(opt, t, labels(points, strconv.Itoa), func(r, c int) FCGIParams { // columns: {copy, ref} × {d=1, d=8}
		return FCGIParams{Workers: points[r], Depth: []int{1, 8}[c%2], Ref: c >= 2, Warmup: warm, Measure: meas, Obs: opt.Trace}
	}, RunFCGI, func(r FCGIResult) float64 { return r.KReqPerSec })
	for _, r := range res[slices.Index(points, 4)] {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: copied %.2f MB, cpu %.2f", r.Label, r.CopiedMB, r.CPUUtil))
	}
	t.Notes = append(t.Notes,
		"16KB docs, 400µs app wait, M = workers × depth closed-loop requesters",
		"d=1 is the old one-request-per-worker pipe protocol; d=8 multiplexes 8 requests per pipe pair",
		"ref-mode response payloads cross pipe and domain boundary by reference: copied MB is framing only")
	return t
}

// fcgiNetFigConfigs is the column set: every placement × payload mode,
// plus the submission-ring variant of the placement it helps most —
// sock-local ref, where the per-record and per-delivery syscalls were the
// remaining gap to the pipe figure.
var fcgiNetFigConfigs = []struct {
	placement          FCGIPlacement
	ref, ring, offload bool
}{
	{PlacePipe, false, false, false},
	{PlacePipe, true, false, false},
	{PlaceSockLocal, false, false, false},
	{PlaceSockLocal, true, false, false},
	{PlaceSockLocal, true, true, false},
	{PlaceSockLocal, true, false, true},
	{PlaceSockRemote, false, false, false},
	{PlaceSockRemote, true, false, false},
}

// FigFCGINet — the LAN-tax figure: completed requests per second versus
// worker count for every placement × payload mode, at mux depth 8. The
// notes carry the charged copy volume that explains the ordering: pipes
// charge framing only in ref mode; a local socket adds per-packet
// protocol work but still zero payload copies; a remote socket buys a
// second CPU at the price of the boundary copy (ref) or two copies plus
// the wire (copy). The ring column batches the local socket's syscalls
// back out of the path — its kreq/s is the LAN tax minus the kernel-
// crossing installment, closing most of the gap to the pipe figure.
func FigFCGINet(opt Options) *Table {
	t := &Table{Title: "FCGI-Net: worker placement, copy vs ref records (kreq/s) — the LAN tax", XLabel: "workers",
		Columns: []string{"pipe copy", "pipe ref", "sock-local copy", "sock-local ref",
			"sock-local ref ring", "sock-local ref offl", "sock-remote copy", "sock-remote ref"}}
	warm, meas := pick(opt, 300*time.Millisecond, 200*time.Millisecond), pick(opt, 1500*time.Millisecond, 750*time.Millisecond)
	points := pick(opt, []int{1, 2, 4, 8}, []int{2, 4})
	res := sweep(opt, t, labels(points, strconv.Itoa), func(r, c int) FCGIParams {
		cfg := fcgiNetFigConfigs[c]
		return FCGIParams{Placement: cfg.placement, Workers: points[r], Ref: cfg.ref, Ring: cfg.ring, Offload: cfg.offload,
			Warmup: warm, Measure: meas, Obs: opt.Trace}
	}, RunFCGI, func(r FCGIResult) float64 { return r.KReqPerSec })
	row := res[slices.Index(points, 4)]
	for _, r := range row {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: copied %.2f MB, cpu %.2f (worker machine %.2f), %.1f pkts/req, seg fill %.2f, %.1f sys/req",
			r.Label, r.CopiedMB, r.CPUUtil, r.WorkerCPUUtil, r.PktsPerReq, r.SegFill, r.SyscallsPerReq))
	}
	// Columns 3-5: sock-local ref plain, with the ring, with offload.
	localRef, localRing, localOffl := row[3], row[4], row[5]
	if localRing.SyscallsPerReq > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"ring before/after (sock-local ref): %.1f → %.1f sys/req, %.1f → %.1f kreq/s",
			localRef.SyscallsPerReq, localRing.SyscallsPerReq,
			localRef.KReqPerSec, localRing.KReqPerSec))
	}
	if localOffl.Requests > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"offload before/after (sock-local ref): %.1f → %.1f pkts/req, %.1f → %.1f acks/req, %.1f → %.1f kreq/s",
			localRef.PktsPerReq, localOffl.PktsPerReq,
			localRef.AcksPerReq, localOffl.AcksPerReq,
			localRef.KReqPerSec, localOffl.KReqPerSec))
	}
	t.Notes = append(t.Notes,
		"16KB docs, 400µs app wait, depth 8, M = workers × depth closed-loop requesters",
		"sock-local rides loopback TCP on the server machine; sock-remote a 1 Gb/s, 50µs LAN link",
		"ref payloads cross pipes and local sockets by reference (copied MB ≈ framing);",
		"at the machine boundary they are charged as copies exactly once — the LAN tax",
		"pkts/req and seg fill meter the packet economy: the corked pump gathers adjacent",
		"records into MSS-sized segments and autotuned windows (depth × typical record)",
		"keep admission from fragmenting — fewer, fuller packets per request",
		"sys/req meters kernel crossings; the ring column batches record writes and",
		"coalesces deliveries, paying O(1) Submit+Reap charges per flush cycle",
		"the offl column turns on LSO/GRO segment offload: up to 64KB super-segments",
		"charged protocol work once, coalesced receive events, and delayed acks")
	return t
}
