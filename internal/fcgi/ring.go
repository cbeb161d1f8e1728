package fcgi

import (
	"fmt"

	"iolite/internal/core"
	"iolite/internal/kernel"
	"iolite/internal/sim"
	"iolite/internal/uring"
)

// Ring mode routes a connection's record I/O through submission rings.
// Writers no longer pay one syscall per record: WriteRecord queues the
// framed record and parks; a flusher process gathers every queued record —
// across all the mux's concurrent requests — and moves the whole batch
// with one Submit and one Reap, so a depth-D connection under load pays
// O(1) syscalls per flush cycle instead of O(D). Reads refill through a
// ring too: one Submit+Reap pair ingests every delivery the channel has
// ready (the ring's receive coalescing), where the direct path paid one
// syscall per MSS-sized delivery.
//
// Framing charges (header packing, ref-mode concatenation, copy-mode
// staging) stay on the calling process exactly as on the direct path —
// the ring batches syscalls, not work. Per-record error reporting also
// survives: each queued record learns its own op's outcome, so the mux's
// ErrNotSent contract (a failed BEGIN/PARAMS write means the request never
// reached the worker) holds unchanged.

// ringWrite is one queued outbound record awaiting the flusher.
type ringWrite struct {
	agg *core.Agg // ref-mode framed record; ownership passes to the ring
	hdr []byte    // serialized modes: the framed header bytes
	pay []byte    // serialized modes: payload bytes (nil for END)

	done bool
	err  error
	wake sim.WaitQueue
}

// EnableRing switches the connection to submission-ring I/O. Call it at
// channel setup, before any records move; it is idempotent. The flusher
// process it starts exits when the connection closes.
func (c *Conn) EnableRing() {
	if c.ringOn {
		return
	}
	c.ringOn = true
	c.wring = uring.New(c.m, c.pr)
	c.rring = uring.New(c.m, c.pr)
	c.m.Eng.Go(fmt.Sprintf("fcgi.ringflush%d", c.id), c.ringFlusher)
}

// ringWriteRecord frames rec (charged to the caller, like the direct
// path), queues it, and parks until the flusher reports the op's outcome.
// WriteRecord settles ownership as on the direct path; a failed ref-mode
// op releases the framed aggregate — and with it the Concat references —
// inside the ring.
func (c *Conn) ringWriteRecord(p *sim.Proc, rec Record, n int) error {
	if c.ringClosed {
		return kernel.ErrClosed
	}
	var hbuf [HeaderLen + TraceLen]byte
	hdr := hbuf[:rec.Header.encode(hbuf[:])]

	w := &ringWrite{}
	if c.wmode == WireRef {
		w.agg = c.frameRef(p, hdr, rec)
	} else {
		w.hdr = append([]byte(nil), hdr...)
		if n > 0 {
			w.pay = c.stagePayload(p, rec, n)
		}
	}

	c.ringQ = append(c.ringQ, w)
	c.ringWake.Wake(1)
	for !w.done {
		w.wake.Wait(p)
	}
	return w.err
}

// ringFlusher is the connection's write-batching process: park until
// records queue, then move the whole queue in one Submit + one Reap. The
// cork pair rides the same submission on corkable channels, so a batch of
// serialized records coalesces into full segments exactly as the direct
// path's per-record corking arranged.
func (c *Conn) ringFlusher(p *sim.Proc) {
	for {
		for len(c.ringQ) == 0 && !c.ringClosed {
			c.ringWake.Wait(p)
		}
		if len(c.ringQ) == 0 {
			return // closed and drained
		}
		batch := c.ringQ
		c.ringQ = nil

		if c.corkable {
			c.wring.PrepCork(c.wfd, true)
		}
		toks := make(map[uint64]*ringWrite, 2*len(batch))
		for _, w := range batch {
			if w.agg != nil {
				toks[c.wring.PrepIOLWrite(c.wfd, w.agg)] = w
			} else {
				toks[c.wring.PrepWritePOSIX(c.wfd, w.hdr)] = w
				if len(w.pay) > 0 {
					toks[c.wring.PrepWritePOSIX(c.wfd, w.pay)] = w
				}
			}
		}
		if c.corkable {
			c.wring.PrepCork(c.wfd, false)
		}

		want := c.wring.Submit(p)
		for collected := 0; collected < want; {
			cqes := c.wring.Reap(p, want-collected)
			if len(cqes) == 0 {
				break // nothing in flight: every op accounted for
			}
			collected += len(cqes)
			for _, cqe := range cqes {
				w := toks[cqe.Token]
				if w == nil {
					continue // cork toggles: advisory, as on the direct path
				}
				if cqe.Err != nil && w.err == nil {
					w.err = cqe.Err
				}
			}
		}
		for _, w := range batch {
			w.done = true
			w.wake.Wake(1)
		}
	}
}

// ringRead submits the one read op staged on rring and reaps its
// completion — the ring half of fill and fillAgg. Every submitted op
// completes with exactly one CQE, so the reap returns it.
func (c *Conn) ringRead(p *sim.Proc) kernel.CQE {
	c.rring.Submit(p)
	return c.rring.Reap(p, 1)[0]
}
