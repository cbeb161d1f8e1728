package fcgi

import (
	"errors"

	"iolite/internal/obs"
	"iolite/internal/sim"
)

// Multi-tenant QoS at the pool router — the PAIO-style policy/enforcement
// split: policy lives here in one QoSConfig, enforcement rides the seams
// that already exist (the routing decision in Do, the per-worker mux
// depth) plus one per-tenant token bucket. Admission control is deliberately
// fail-fast: an over-limit request sheds with a typed error instead of
// queueing, so an adversarial tenant's backlog lives in the tenant's own
// retry loop, not in pool state the other tenants must queue behind.

// QoS admission errors. Both mean "this tenant, right now" — the request
// never dispatched, the caller retains ownership of req.StdinAgg (the
// pool releases its reference before returning, symmetric with the other
// pre-dispatch failure paths).
var (
	// ErrThrottled: the tenant outran its request-rate allowance.
	ErrThrottled = errors.New("fcgi: tenant over request-rate allowance")
	// ErrOverShare: the tenant already holds its full in-flight share of
	// the pool.
	ErrOverShare = errors.New("fcgi: tenant over in-flight share")
)

// qosAdmitCost is the CPU charge of one admission decision (a map probe,
// a bucket refill, two bounds checks) — metered so the enforcement
// overhead the QoS experiments report is honest, not free.
const qosAdmitCost = sim.Duration(300) // 300 ns

// QoSConfig is a pool's multi-tenant admission policy. Requests carrying
// an empty Tenant bypass QoS entirely (zero added cost — the
// single-tenant pools of earlier PRs are unaffected).
type QoSConfig struct {
	// MaxShare bounds each tenant's concurrent in-flight requests
	// (default 2); a tenant at its bound sheds with ErrOverShare.
	MaxShare int
	// ReqRate, when positive, bounds each tenant's admitted
	// requests/second with a per-tenant token bucket; a tenant outrunning
	// it sheds with ErrThrottled.
	ReqRate int64
	// ReqBurst is the bucket burst (default: one second of ReqRate).
	ReqBurst int64
	// Meters, when set, accumulates per-tenant admitted/shed/throttled
	// counts.
	Meters *obs.Tenants
}

// maxShare returns the per-tenant in-flight bound.
func (q *QoSConfig) maxShare() int {
	if q.MaxShare > 0 {
		return q.MaxShare
	}
	return 2
}

// tenantQoS is one tenant's admission state: its in-flight count and rate
// bucket.
type tenantQoS struct {
	inflight int
	bucket   *rateBucket // nil when ReqRate is unset
}

// nanoTok is the bucket's token granularity: one token (one request) is
// 1e9 nano-tokens. At that scale a refill of `rate` tokens/second is
// exactly `rate` nano-tokens per nanosecond, so refill arithmetic is
// integer and drift-free.
const nanoTok = int64(1e9)

// rateBucket is a deterministic token bucket: tokens accrue continuously
// at rate/sec up to burst, and admission takes them without ever parking.
type rateBucket struct {
	eng   *sim.Engine
	rate  int64 // tokens per second == nano-tokens per nanosecond
	burst int64 // bucket capacity in tokens
	avail int64 // nano-tokens on hand
	last  sim.Time
}

// newRateBucket makes a full bucket refilling at ratePerSec tokens/second
// with the given burst capacity (burst <= 0: one second of rate).
func newRateBucket(eng *sim.Engine, ratePerSec, burst int64) *rateBucket {
	if burst <= 0 {
		burst = ratePerSec
	}
	return &rateBucket{
		eng:   eng,
		rate:  ratePerSec,
		burst: burst,
		avail: burst * nanoTok,
		last:  eng.Now(),
	}
}

// refill accrues tokens for the time since the last accounting instant.
func (b *rateBucket) refill() {
	now := b.eng.Now()
	el := int64(now.Sub(b.last))
	b.last = now
	if el <= 0 {
		return
	}
	cap_ := b.burst * nanoTok
	// Guard el*rate against overflow: if the elapsed time is enough to
	// fill the bucket outright, clamp instead of multiplying.
	if nsToFill := (cap_ - b.avail) / b.rate; el > nsToFill {
		b.avail = cap_
		return
	}
	b.avail += el * b.rate
}

// TryTake debits one token if it is available right now.
func (b *rateBucket) TryTake() bool {
	b.refill()
	if b.avail < nanoTok {
		return false
	}
	b.avail -= nanoTok
	return true
}

// tenantState lazily builds tenant's admission state.
func (wp *WorkerPool) tenantState(tenant string) *tenantQoS {
	ts, ok := wp.qosState[tenant]
	if ok {
		return ts
	}
	q := wp.cfg.QoS
	ts = &tenantQoS{}
	if q.ReqRate > 0 {
		ts.bucket = newRateBucket(wp.eng(), q.ReqRate, q.ReqBurst)
	}
	if wp.qosState == nil {
		wp.qosState = make(map[string]*tenantQoS)
	}
	wp.qosState[tenant] = ts
	return ts
}

// eng resolves the engine everything runs on (cfg.Machine when the pool
// owns one, else any worker's machine).
func (wp *WorkerPool) eng() *sim.Engine {
	if wp.cfg.Machine != nil {
		return wp.cfg.Machine.Eng
	}
	return wp.workers[0].M.Eng
}

// admitQoS is the admission decision for one request. It returns a
// release hook (run when the request leaves the pool, however it ends)
// and nil, or a typed shed error. The decision's CPU cost is charged to
// the calling proc on the server machine.
func (wp *WorkerPool) admitQoS(p *sim.Proc, req *Request) (func(), error) {
	q := wp.cfg.QoS
	if q == nil || req.Tenant == "" {
		return nil, nil
	}
	if m := wp.cfg.Machine; m != nil {
		m.Host.Use(p, qosAdmitCost)
	}
	ts := wp.tenantState(req.Tenant)
	stats := q.Meters.Get(req.Tenant)
	if ts.inflight >= q.maxShare() {
		wp.sheds++
		stats.Sheds++
		return nil, ErrOverShare
	}
	if ts.bucket != nil && !ts.bucket.TryTake() {
		wp.throttles++
		stats.Throttles++
		return nil, ErrThrottled
	}
	ts.inflight++
	stats.Requests++
	return func() { ts.inflight-- }, nil
}

// tenantLoad reports how many of tenant's requests are in flight on this
// worker (the per-tenant routing signal).
func (w *Worker) tenantLoad(tenant string) int {
	return w.perTenant[tenant]
}

// addTenant adjusts the worker's per-tenant in-flight count, reaping
// zeroed entries so thousands of transient tenants don't accrete.
func (w *Worker) addTenant(tenant string, d int) {
	if tenant == "" {
		return
	}
	if w.perTenant == nil {
		w.perTenant = make(map[string]int)
	}
	w.perTenant[tenant] += d
	if w.perTenant[tenant] <= 0 {
		delete(w.perTenant, tenant)
	}
}

// IsShed reports whether err is a QoS admission refusal (ErrOverShare or
// ErrThrottled) — the errors a tenant answers with backoff, as opposed to
// real failures.
func IsShed(err error) bool {
	return errors.Is(err, ErrOverShare) || errors.Is(err, ErrThrottled)
}

// Sheds reports requests refused at admission: depth-bound sheds and
// rate throttles. Neither counts as a pool failure — the request never
// dispatched and the typed error tells the tenant to back off.
func (wp *WorkerPool) Sheds() (sheds, throttles int64) {
	return wp.sheds, wp.throttles
}
