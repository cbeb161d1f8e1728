package kernel

import (
	"fmt"

	"iolite/internal/core"
	"iolite/internal/sim"
)

// The submission ring is the io_uring half of the batched-syscall
// subsystem: applications queue descriptor operations and pay one charged
// syscall to submit N of them (Submit) and one to collect their results
// (Reap). The ops execute on kernel worker processes — the io-wq analogue —
// charging their data costs (copies, aggregate ops, cache work) to the
// machine exactly as the direct entry points would; only the per-op kernel
// crossings disappear. Per-op error results, zero-copy *core.Agg returns,
// and splice's zero-copy pin all survive batching because execution reuses
// the same Desc methods the direct calls dispatch to.

// RingOp identifies one submission-queue operation.
type RingOp int

// Ring operations.
const (
	// OpIOLRead is IOL_read: up to N bytes from FD as an aggregate. With
	// Off >= 0 it is the positional pread form (PReader capability).
	// Stream reads coalesce: every delivery that is ready by the time the
	// op executes folds into one completion, up to N.
	OpIOLRead RingOp = iota
	// OpIOLWrite is IOL_write: Agg to FD by reference. Ownership of Agg
	// transfers to the ring at Submit, like io_uring's fixed buffers; on
	// error the ring releases it.
	OpIOLWrite
	// OpReadPOSIX is read(2): fill Buf from FD, copy charged.
	OpReadPOSIX
	// OpWritePOSIX is write(2): copy Buf to FD.
	OpWritePOSIX
	// OpSpliceAt moves N bytes from SrcFD at Off to FD in-kernel
	// (sendfile shape), preserving the splice path's zero-copy pin.
	OpSpliceAt
	// OpCork is setsockopt(TCP_CORK): segment-gathering control ordered
	// with the write stream it brackets, so cork → writes → uncork
	// survives in a single submission.
	OpCork
)

func (op RingOp) String() string {
	switch op {
	case OpIOLRead:
		return "IOL_read"
	case OpIOLWrite:
		return "IOL_write"
	case OpReadPOSIX:
		return "ReadPOSIX"
	case OpWritePOSIX:
		return "WritePOSIX"
	case OpSpliceAt:
		return "SpliceAt"
	case OpCork:
		return "Cork"
	}
	return "unknown"
}

// SQE is one submission-queue entry. Token is opaque to the kernel and
// returned verbatim in the completion, so callers can route results.
type SQE struct {
	Op    RingOp
	FD    int
	SrcFD int   // OpSpliceAt source
	Off   int64 // OpIOLRead positional offset (negative = cursor), OpSpliceAt offset
	N     int64
	// Need, on cursor reads, parks the op until at least Need bytes have
	// coalesced (the MSG_WAITALL shape; EOF still completes short). Zero
	// keeps the one-delivery-plus-whatever-is-ready default.
	Need  int64
	Agg   *core.Agg // OpIOLWrite payload
	Buf   []byte    // OpReadPOSIX destination / OpWritePOSIX source
	On    bool      // OpCork
	Token uint64
}

// CQE is one completion-queue entry: the op's results exactly as the
// direct call would have returned them.
type CQE struct {
	Token uint64
	Res   int64     // bytes moved
	Agg   *core.Agg // OpIOLRead result, caller-owned
	Err   error
}

// RingDesc is the submission ring. Ops against the same descriptor and
// direction execute in submission order (reads among reads, writes among
// writes); ops on different fds or directions proceed independently, so an
// outstanding blocked read never wedges the writes behind it — the
// head-of-line split a full-duplex framed channel needs.
type RingDesc struct {
	m  *Machine
	pr *Process

	queues  map[int][]*SQE // per (fd, direction) FIFO awaiting a worker
	working map[int]bool   // a worker proc is draining this key
	cq      []CQE
	reapers sim.WaitQueue
	notify  func()
	closed  bool

	submitted   int64
	completed   int64
	submitCalls int64
	reapCalls   int64
}

// NewRingDesc creates a submission ring over pr's descriptor table.
// Install it with Process.Install; its fd is Pollable (readable when
// completions await Reap), so one readiness loop can watch sockets and its
// ring together.
func NewRingDesc(m *Machine, pr *Process) *RingDesc {
	return &RingDesc{
		m:       m,
		pr:      pr,
		queues:  make(map[int][]*SQE),
		working: make(map[int]bool),
	}
}

// opKey maps an SQE to its ordering domain: (fd, direction). Reads order
// among reads on the same fd; writes (and the cork toggles and splices
// that bracket them) order among writes; accepts order among accepts.
func opKey(sqe *SQE) int {
	switch sqe.Op {
	case OpIOLRead, OpReadPOSIX:
		return sqe.FD * 2
	default:
		return sqe.FD*2 + 1
	}
}

// Submit charges exactly one syscall for all queued entries and dispatches
// them to their ordering domains' worker processes. The entries' fds are
// resolved at execution time, not submission time — an fd closed before
// its op runs completes with ErrBadFD, and an op on a Dup'd fd keeps
// working through the shared open-file entry, matching io_uring. Returns
// the number of ops accepted.
func (r *RingDesc) Submit(p *sim.Proc, sqes []SQE) int {
	r.m.syscall(p)
	r.submitCalls++
	for i := range sqes {
		sqe := sqes[i]
		if r.closed {
			r.finish(CQE{Token: sqe.Token, Err: ErrClosed}, sqe.Agg)
			continue
		}
		r.submitted++
		key := opKey(&sqe)
		r.queues[key] = append(r.queues[key], &sqe)
		if !r.working[key] {
			r.working[key] = true
			r.m.Eng.Go(fmt.Sprintf("%s.ring-wq", r.m.Host.Name), func(wp *sim.Proc) {
				r.runWorker(wp, key)
			})
		}
	}
	return len(sqes)
}

// runWorker drains one (fd, direction) queue and exits when it runs dry —
// workers are ephemeral, spawned per active domain like io-wq threads.
func (r *RingDesc) runWorker(p *sim.Proc, key int) {
	for {
		q := r.queues[key]
		if len(q) == 0 {
			delete(r.working, key)
			return
		}
		sqe := q[0]
		r.queues[key] = q[1:]
		r.finish(r.execute(p, sqe), nil)
	}
}

// finish appends a completion, wakes reapers and pollers. failed, if
// non-nil, is an unconsumed write payload to release.
func (r *RingDesc) finish(cqe CQE, failed *core.Agg) {
	if failed != nil {
		failed.Release()
	}
	r.cq = append(r.cq, cqe)
	r.completed++
	r.reapers.Wake(-1)
	if r.notify != nil {
		r.notify()
	}
}

// execute runs one op on worker p, resolving the fd now (close-before-reap
// semantics). Data costs are charged here, to the machine, exactly as the
// direct entry point would have charged them — minus the kernel crossing.
func (r *RingDesc) execute(p *sim.Proc, sqe *SQE) CQE {
	cqe := CQE{Token: sqe.Token}
	d, err := r.pr.Desc(sqe.FD)
	if err != nil {
		if sqe.Agg != nil {
			sqe.Agg.Release()
		}
		cqe.Err = err
		return cqe
	}
	switch sqe.Op {
	case OpIOLRead:
		if sqe.Off >= 0 {
			pd, ok := d.(PReader)
			if !ok {
				cqe.Err = ErrNotSupported
				return cqe
			}
			a, err := pd.ReadAggAt(p, r.pr, sqe.Off, sqe.N)
			if err != nil {
				cqe.Err = err
				return cqe
			}
			cqe.Agg, cqe.Res = a, int64(a.Len())
			return cqe
		}
		a, err := d.ReadAgg(p, r.pr, sqe.N)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		// Receive coalescing: fold every delivery that is already ready
		// into this completion, up to N. A 16 KB response arriving as a
		// dozen MSS segments becomes one completion instead of a dozen
		// read syscalls — the receive-side half of the ring's economy.
		// Below Need bytes the op parks for more instead of completing
		// short (the MSG_WAITALL shape); EOF still completes short.
		if po, ok := d.(Pollable); ok {
			for int64(a.Len()) < sqe.N {
				if int64(a.Len()) >= sqe.Need && po.PollReady()&Readable == 0 {
					break
				}
				b, err := d.ReadAgg(p, r.pr, sqe.N-int64(a.Len()))
				if err != nil || b == nil {
					break // EOF or teardown surfaces on the next op
				}
				a.Concat(b)
				b.Release()
			}
		}
		cqe.Agg, cqe.Res = a, int64(a.Len())
	case OpIOLWrite:
		if err := d.WriteAgg(p, r.pr, sqe.Agg); err != nil {
			sqe.Agg.Release() // ownership came to the ring at Submit
			cqe.Err = err
			return cqe
		}
		cqe.Res = sqe.N
	case OpReadPOSIX:
		n, err := d.ReadCopy(p, r.pr, sqe.Buf)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		// Coalesce exactly like the aggregate path, Need included.
		if po, ok := d.(Pollable); ok {
			for n < len(sqe.Buf) {
				if int64(n) >= sqe.Need && po.PollReady()&Readable == 0 {
					break
				}
				more, err := d.ReadCopy(p, r.pr, sqe.Buf[n:])
				if err != nil || more == 0 {
					break
				}
				n += more
			}
		}
		cqe.Res = int64(n)
	case OpWritePOSIX:
		n, err := d.WriteCopy(p, r.pr, sqe.Buf)
		if err != nil {
			cqe.Err = err
			return cqe
		}
		cqe.Res = int64(n)
	case OpSpliceAt:
		n, err := r.m.spliceAt(p, r.pr, sqe.FD, sqe.SrcFD, sqe.Off, sqe.N)
		cqe.Res, cqe.Err = n, err
	case OpCork:
		c, ok := d.(corker)
		if !ok {
			cqe.Err = ErrNotSupported
			return cqe
		}
		c.SetCork(sqe.On)
	default:
		cqe.Err = ErrNotSupported
	}
	return cqe
}

// Reap charges exactly one syscall and returns every queued completion,
// blocking until at least min are available. If fewer than min ops are in
// flight, it returns what exists rather than parking forever.
func (r *RingDesc) Reap(p *sim.Proc, min int) []CQE {
	r.m.syscall(p)
	r.reapCalls++
	for len(r.cq) < min && r.inflight() > 0 {
		r.reapers.Wait(p)
	}
	out := r.cq
	r.cq = nil
	return out
}

// inflight reports submitted ops not yet completed.
func (r *RingDesc) inflight() int { return int(r.submitted - r.completed) }

// Stats reports total ops submitted and the Submit/Reap syscalls that
// carried them — the batching ratio the acceptance test pins.
func (r *RingDesc) Stats() (ops, submits, reaps int64) {
	return r.submitted, r.submitCalls, r.reapCalls
}

// Desc interface: a RingDesc installs like any descriptor but supports no
// direct data I/O.

func (r *RingDesc) Kind() DescKind { return KindDevice }
func (r *RingDesc) RefMode() bool  { return true }
func (r *RingDesc) Seekable() bool { return false }

func (r *RingDesc) ReadAgg(*sim.Proc, *Process, int64) (*core.Agg, error) {
	return nil, ErrNotSupported
}
func (r *RingDesc) WriteAgg(*sim.Proc, *Process, *core.Agg) error { return ErrNotSupported }
func (r *RingDesc) ReadCopy(*sim.Proc, *Process, []byte) (int, error) {
	return 0, ErrNotSupported
}
func (r *RingDesc) WriteCopy(*sim.Proc, *Process, []byte) (int, error) {
	return 0, ErrNotSupported
}
func (r *RingDesc) Seek(int64, int) (int64, error) { return 0, ErrNotSupported }

// Close marks the ring closed: later submissions complete with ErrClosed.
// Already-queued ops run to completion (a closing application should drain
// with Reap first); uncollected completions release their aggregates.
func (r *RingDesc) Close(*sim.Proc) error {
	r.closed = true
	for _, cqe := range r.cq {
		if cqe.Agg != nil {
			cqe.Agg.Release()
		}
	}
	r.cq = nil
	return nil
}

// PollReady implements Pollable: readable when completions await Reap.
func (r *RingDesc) PollReady() Interest {
	if len(r.cq) > 0 {
		return Readable
	}
	return 0
}

// SetPollNotify implements Pollable: fn fires at every completion.
func (r *RingDesc) SetPollNotify(fn func()) { r.notify = fn }
