package netsim

import (
	"fmt"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Payload is the data of one send: either an IO-Lite aggregate (reference
// mode — ownership transfers to the transport, which releases buffers as
// the peer acknowledges) or a private byte slice (copy mode; the kernel has
// already charged the copy into socket buffers).
type Payload struct {
	Agg  *core.Agg
	Data []byte
}

// Len returns the payload length.
func (pl Payload) Len() int {
	if pl.Agg != nil {
		return pl.Agg.Len()
	}
	return len(pl.Data)
}

// Delivery is one received chunk, in arrival order. Exactly one of Agg/Data
// is set, mirroring the sender's mode.
type Delivery struct {
	Agg  *core.Agg
	Data []byte
}

// Len returns the delivered byte count.
func (d Delivery) Len() int {
	if d.Agg != nil {
		return d.Agg.Len()
	}
	return len(d.Data)
}

// Bytes materializes the delivered data (copying for aggregates).
func (d Delivery) Bytes() []byte {
	if d.Agg != nil {
		return d.Agg.Materialize()
	}
	return d.Data
}

// Release drops any buffer references the delivery holds.
func (d Delivery) Release() {
	if d.Agg != nil {
		d.Agg.Release()
	}
}

// ConnOpts configures one connection.
type ConnOpts struct {
	// Tss is the socket send buffer size in bytes (64 KB in all the paper's
	// experiments). At most Tss bytes may be queued or in flight, which
	// also caps the connection's throughput at Tss/RTT (§5.7).
	Tss int
	// ServerRefMode selects the IO-Lite send path for the server-side
	// endpoint: payload passes by reference, checksums may be cached, and
	// no socket-buffer memory is consumed.
	ServerRefMode bool
}

// Conn is an established connection. The two directions are independent
// endpoints.
type Conn struct {
	client *Endpoint
	server *Endpoint
}

// ClientEnd returns the endpoint used by the client process.
func (c *Conn) ClientEnd() *Endpoint { return c.client }

// ServerEnd returns the endpoint used by the server process.
func (c *Conn) ServerEnd() *Endpoint { return c.server }

// sendItem is admitted payload awaiting segmentation. done fires when the
// segment carrying the item's last byte is acknowledged. bind is the
// sender's attribution binding (captured only while a charge hook is
// installed) so the pump can bin the item's wire and checksum work to
// the request that queued it.
type sendItem struct {
	pl   Payload
	off  int
	done func()
	bind interface{}
}

// segPiece is one gathered piece of an outgoing segment. A corked segment
// may carry the tail of one send item plus whole following items, mixing
// reference pieces (agg) and copy pieces (data); exactly one field is set.
type segPiece struct {
	agg  *core.Agg
	data []byte
}

// segChunk is one MSS-granular wire unit of an in-flight segment. Without
// offload a record carries exactly one chunk; with LSO a super-segment
// carries up to SuperSeg/MSS of them, but sequence space, fault judgment,
// and acknowledgment all stay chunk-granular: the receiver can accept a
// super-segment's prefix up to a hole, and the resulting partial ack
// releases whole chunks only. A chunk holds one agg reference per ref
// piece and the done callbacks of send items whose last byte it carries.
type segChunk struct {
	seq    int64 // first payload byte's sequence number
	n      int
	pieces []segPiece
	aggs   []*core.Agg // reference-mode piece payloads, released on ack
	dones  []func()
}

// ackRecord tracks one in-flight (super-)segment so acknowledgments
// release resources in order. The record keeps its gathered chunks so a
// retransmission re-sends the very same buffers: no copy is re-charged
// (the copy was paid at admission) and no extra agg reference is taken
// (each chunk's single reference per ref piece lives until the ack
// releases it). Partial acks trim acknowledged chunks off the front, so
// go-back-N resends only the stored pieces that cover the hole — never a
// whole super-segment whose prefix already arrived.
type ackRecord struct {
	seq    int64 // first unacknowledged payload byte's sequence number
	n      int   // unacknowledged payload bytes (sum of chunk lengths)
	chunks []segChunk
	sent   sim.Time // first transmission, for RTT sampling
	retx   bool     // retransmitted at least once (Karn: no RTT sample)
}

// end returns the sequence number just past this segment.
func (r *ackRecord) end() int64 { return r.seq + int64(r.n) }

// trimAcked releases the record's chunks wholly below ackNo — their agg
// references, done callbacks (in admission order), and window bytes —
// leaving the remainder in place for retransmission. Returns the payload
// bytes freed. Cumulative acks land only on chunk boundaries (the
// receiver accepts whole chunks); anything else is a protocol bug.
func (r *ackRecord) trimAcked(ackNo int64) int {
	freed := 0
	for len(r.chunks) > 0 {
		ck := &r.chunks[0]
		if ck.seq+int64(ck.n) > ackNo {
			break
		}
		for _, a := range ck.aggs {
			a.Release()
		}
		for _, done := range ck.dones {
			done()
		}
		freed += ck.n
		r.seq = ck.seq + int64(ck.n)
		r.n -= ck.n
		r.chunks = r.chunks[1:]
	}
	if r.seq < ackNo && len(r.chunks) > 0 {
		panic(fmt.Sprintf("netsim: ack %d splits chunk at %d", ackNo, r.chunks[0].seq))
	}
	return freed
}

// Retransmission timing. RTO adapts to measured RTT (Jacobson) between
// these clamps; every timer expiry doubles it (exponential backoff) until
// an ack makes progress again. Timers exist only on endpoints a FaultPlan
// can touch — a reliable wire runs timer-free.
// minRTO is a floor against spurious timeouts, not a WAN kernel's 200 ms:
// the simulated links are microsecond-RTT datacenter wires and acks are
// never delayed, so the floor only needs to ride out ack latency inflated
// by CPU queueing. A spurious fire is also cheap here — the recovery
// point gates it to one window resend.
const (
	minRTO = 200 * sim.Microsecond
	maxRTO = 1000 * sim.Millisecond
)

// Endpoint is one direction's sender plus the opposite direction's
// receiver, owned by one host.
type Endpoint struct {
	host *Host
	peer *Endpoint
	link *Link
	dir  int

	refMode bool
	tss     int

	// Sender state.
	sndQ      []*sendItem
	sndBytes  int // admitted (queued-unsent + in-flight) bytes, ≤ tss
	queued    int // admitted-but-unsegmented bytes (the tail of sndBytes)
	corked    bool
	flush     bool // Drain's push: emit the held tail even while corked
	ackFIFO   []*ackRecord
	sndWait   sim.WaitQueue
	pump      *sim.Proc
	pumpIdle  bool
	closing   bool
	finSent   bool
	sockPages int // TagSockBuf pages currently reserved (copy mode)

	// Go-back-N recovery state (active only on faulty wires): sndUna is the
	// lowest unacknowledged sequence number, sndNxt the next to assign.
	// rtoTimer is the pending retransmission timer on the engine's wheel;
	// rto its current (backed-off) value; srtt/rttvar the Jacobson
	// estimator. dupAcks counts consecutive duplicate cumulative acks for
	// fast retransmit.
	sndUna, sndNxt int64
	rto            sim.Duration
	srtt, rttvar   sim.Duration
	rtoTimer       *sim.Timer
	dupAcks        int
	// Stall accounting: a loss-recovery episode opens at the first
	// retransmission (timeout or fast retransmit) and closes when a
	// cumulative ack makes forward progress. stallAccum totals closed
	// episodes; observability carves this time out of request phases as
	// retransmit stall.
	stallAccum sim.Duration
	stallStart sim.Time
	inStall    bool
	// recoverUntil is the recovery point: every retransmission records
	// sndNxt here, and duplicate acks cannot trigger another fast
	// retransmit until the cumulative ack passes it. One loss event costs
	// one window resend — without the gate, each segment arriving behind
	// the hole re-acks, re-arms the 3-dup-ack trigger, and the window is
	// resent once per few arrivals (a retransmission storm).
	recoverUntil int64

	// Receiver state. rcvNxt is the next expected sequence number:
	// out-of-order segments are discarded and re-acked (go-back-N). rcvShut
	// marks a local receive shutdown — queued and future deliveries are
	// discarded (but still acknowledged, so the peer's sender can drain)
	// without taking buffer references.
	rcvQ      []Delivery
	rcvWait   sim.WaitQueue
	rcvClosed bool
	rcvNxt    int64
	rcvShut   bool

	// Delayed-ack state (active only when the host's offload knob is on):
	// ackEvents counts in-order receive events since the last ack left;
	// every AckEvery-th event acks immediately, and the wheel timer
	// bounds the wait for the rest. An out-of-order arrival flushes
	// immediately — the dup-ack fast-retransmit signal never waits out
	// the delay — and an outgoing data segment piggybacks any pending
	// ack for free.
	ackEvents int
	ackTimer  *sim.Timer

	// rcvNotify/sndNotify fire (if set) when the receive side becomes
	// ready (delivery or FIN) / when transmit-window space frees. Readiness
	// descriptors hang their poll wakeups here.
	rcvNotify func()
	sndNotify func()
}

// newConn wires two endpoints over link. clientHost dials serverHost.
func newConn(clientHost, serverHost *Host, link *Link, opts ConnOpts) *Conn {
	if opts.Tss <= 0 {
		opts.Tss = 64 << 10
	}
	c := &Conn{}
	c.client = &Endpoint{host: clientHost, link: link, dir: link.dirFrom(clientHost), tss: opts.Tss}
	c.server = &Endpoint{host: serverHost, link: link, dir: link.dirFrom(serverHost), tss: opts.Tss, refMode: opts.ServerRefMode}
	c.client.peer = c.server
	c.server.peer = c.client
	c.client.startPump()
	c.server.startPump()
	return c
}

// Host returns the endpoint's host.
func (e *Endpoint) Host() *Host { return e.host }

// RefMode reports whether this endpoint sends by reference.
func (e *Endpoint) RefMode() bool { return e.refMode }

// Closing reports whether Close has been called on this endpoint's send
// direction; further sends would panic.
func (e *Endpoint) Closing() bool { return e.closing }

// SockBufPages reports the copy-mode socket-buffer pages this endpoint
// currently pins (the Figure 12 memory effect).
func (e *Endpoint) SockBufPages() int { return e.sockPages }

// SetCork sets the endpoint's explicit cork (TCP_CORK): while corked, the
// pump transmits only full MSS segments, holding a sub-MSS tail until more
// data arrives. Removing the cork flushes the tail. Callers should uncork
// when their write burst ends; a held tail otherwise flushes only on
// Drain, Close, or send-buffer pressure (a full window with nothing in
// flight, where holding would wedge the blocked sender).
func (e *Endpoint) SetCork(on bool) {
	e.corked = on
	if !on {
		e.wakePump()
	}
}

// Corked reports whether the endpoint is explicitly corked.
func (e *Endpoint) Corked() bool { return e.corked }

// Send queues a payload for transmission, blocking while the socket send
// buffer is full — payload is admitted piecewise as space frees, exactly
// like a blocking write(2). In reference mode the endpoint takes ownership
// of pl.Agg. done, if non-nil, runs when the whole payload is acknowledged.
func (e *Endpoint) Send(p *sim.Proc, pl Payload, done func()) {
	if e.closing {
		panic("netsim: send on closed endpoint")
	}
	n := pl.Len()
	if n == 0 {
		if pl.Agg != nil {
			pl.Agg.Release()
		}
		if done != nil {
			done()
		}
		return
	}
	for off := 0; off < n; {
		for e.sndBytes >= e.tss {
			e.sndWait.Wait(p)
		}
		take := n - off
		if room := e.tss - e.sndBytes; take > room {
			take = room
		}
		var piece Payload
		if pl.Agg != nil {
			piece.Agg = pl.Agg.Range(off, take)
		} else {
			piece.Data = pl.Data[off : off+take]
		}
		var cb func()
		if off+take == n {
			cb = done
		}
		e.sndBytes += take
		e.queued += take
		if !e.refMode {
			e.reserveSock()
		}
		item := &sendItem{pl: piece, done: cb}
		if e.host.costs.OnCharge != nil {
			item.bind = p.Attrib()
		}
		e.sndQ = append(e.sndQ, item)
		e.wakePump()
		off += take
	}
	if pl.Agg != nil {
		pl.Agg.Release() // admitted pieces hold their own references
	}
}

// reserveSock adjusts TagSockBuf page accounting to current occupancy.
func (e *Endpoint) reserveSock() {
	if e.host.vm == nil {
		return
	}
	want := mem.PagesFor(e.sndBytes)
	if want > e.sockPages {
		e.host.vm.Reserve(mem.TagSockBuf, want-e.sockPages)
		e.sockPages = want
	} else if want < e.sockPages {
		e.host.vm.Release(mem.TagSockBuf, e.sockPages-want)
		e.sockPages = want
	}
}

func (e *Endpoint) wakePump() {
	if e.pumpIdle {
		e.pumpIdle = false
		e.pump.Unpark()
	}
}

// startPump launches the endpoint's sender process.
func (e *Endpoint) startPump() {
	e.pump = e.host.eng.Go(e.host.Name+".snd", func(p *sim.Proc) {
		e.runPump(p)
	})
}

// runPump drains the send queue into MSS-sized segments, charges
// per-packet protocol and checksum work, serializes on the wire, and
// schedules delivery after the propagation delay. The pump corks: adjacent
// send items gather into one segment instead of each item becoming its own
// (possibly undersized) packet, and a sub-MSS tail is held back while the
// endpoint is explicitly corked or while unacknowledged segments are still
// in flight (Nagle-style auto-cork) — more data or the draining acks will
// fill it. Close flushes everything.
func (e *Endpoint) runPump(p *sim.Proc) {
	costs := e.host.costs
	for {
		if len(e.sndQ) == 0 {
			if e.closing && !e.finSent && len(e.ackFIFO) == 0 {
				e.finSent = true
				e.transmitFIN(p)
				return
			}
			if e.finSent {
				return
			}
			e.pumpIdle = true
			p.Park()
			continue
		}
		if e.holdTail() {
			// Corked sub-MSS tail: park until new data, the flushing
			// uncork, the last ack, or Close arrives.
			e.pumpIdle = true
			p.Park()
			continue
		}
		e.emitSegment(p, costs)
	}
}

// holdTail reports whether a sub-MSS queue tail should wait for more data:
// while unacknowledged segments are in flight (Nagle-style auto-cork —
// their acks are guaranteed, so progress is too) or while the endpoint is
// explicitly corked. An explicit cork yields under buffer pressure — a
// full window with nothing in flight means no ack will ever come and a
// sender blocked in Send cannot reach its uncork, so holding would
// deadlock; TCP_CORK likewise flushes when the send buffer fills.
func (e *Endpoint) holdTail() bool {
	if e.queued >= MSS || e.closing || e.flush {
		return false
	}
	if len(e.ackFIFO) > 0 {
		return true
	}
	return e.corked && e.sndBytes < e.tss
}

// emitSegment gathers adjacent send items into one segment — the tail of
// one item plus whole following items, mixing copy and reference pieces —
// charges its protocol work, and puts it on the wire. Without offload the
// segment is one MSS-sized chunk, exactly the pre-offload pump. With LSO
// it is a super-segment of up to SuperSeg/MSS chunks whose fixed protocol
// work (mbuf, packet path, wire emit) is charged once, plus a small
// per-chunk segmentation residual; sequence space stays chunk-granular so
// faults and acks inside the super-segment resolve per MSS. Items whose
// last byte is admitted attach their done callbacks to their chunk.
func (e *Endpoint) emitSegment(p *sim.Proc, costs *sim.CostModel) {
	rec := &ackRecord{seq: e.sndNxt}
	// Attribute the segment's wire and checksum work to the request that
	// queued its head item: the pump proc temporarily wears the sender's
	// binding so the charge hook resolves it. Free when no hook is set.
	var bind interface{}
	if costs.OnCharge != nil && len(e.sndQ) > 0 {
		bind = e.sndQ[0].bind
		p.SetAttrib(bind)
		defer p.SetAttrib(nil)
	}
	maxChunks := 1
	if e.host.offload {
		maxChunks = e.host.ocfg.SuperSeg / MSS
	}
	cpu := costs.MbufAlloc + costs.Packet
	for len(rec.chunks) < maxChunks && len(e.sndQ) > 0 {
		if len(rec.chunks) > 0 && e.queued-rec.n < MSS && !e.closing && !e.flush {
			// Nagle inside the super-segment: a sub-MSS tail chunk waits
			// for more data or the draining acks, exactly as it would
			// have as a standalone segment.
			break
		}
		ck := segChunk{seq: rec.seq + int64(rec.n)}
		for ck.n < MSS && len(e.sndQ) > 0 {
			item := e.sndQ[0]
			take := item.pl.Len() - item.off
			if room := MSS - ck.n; take > room {
				take = room
			}
			if item.pl.Agg != nil {
				pa := item.pl.Agg.Range(item.off, take)
				ck.pieces = append(ck.pieces, segPiece{agg: pa})
				ck.aggs = append(ck.aggs, pa)
				if e.host.ck == nil {
					cpu += costs.Cksum(take)
				}
			} else {
				ck.pieces = append(ck.pieces, segPiece{data: item.pl.Data[item.off : item.off+take]})
				cpu += costs.Cksum(take)
			}
			item.off += take
			ck.n += take
			if item.off == item.pl.Len() {
				if item.done != nil {
					ck.dones = append(ck.dones, item.done)
				}
				if item.pl.Agg != nil {
					item.pl.Agg.Release() // segment pieces hold their own references
				}
				e.sndQ = e.sndQ[1:]
			}
		}
		rec.n += ck.n
		rec.chunks = append(rec.chunks, ck)
	}
	if len(rec.chunks) > 1 {
		cpu += sim.Duration(len(rec.chunks)-1) * costs.SegChunk
	}
	e.queued -= rec.n
	if e.queued == 0 {
		e.flush = false // the push is complete; the cork holds again
	}
	e.host.Use(p, cpu)
	if e.host.ck != nil {
		// Checksum cache: only cold slices cost CPU (§3.9); the cache
		// charges p internally for misses, per gathered ref piece.
		for _, ck := range rec.chunks {
			for _, pc := range ck.pieces {
				if pc.agg != nil {
					e.host.ck.Partial(p, costs, pc.agg)
				}
			}
		}
	}
	rec.sent = e.host.eng.Now()
	e.sndNxt += int64(rec.n)
	e.ackFIFO = append(e.ackFIFO, rec)
	costs.EmitWire(int64(rec.n), bind)
	e.piggybackAck()
	e.transmitData(p, rec)
	e.armRTO()

	e.host.stats.PktsOut++
	e.host.stats.SegsOut += int64(len(rec.chunks))
	e.host.stats.BytesOut += int64(rec.n)
}

// wireTime is the record's total serialization time: each MSS chunk goes
// on the wire as its own packet (the NIC segments a super-segment back
// into MSS frames), so per-chunk header and framing overhead is paid in
// wire time even when the CPU charged the protocol path only once.
func (e *Endpoint) wireTime(rec *ackRecord) sim.Duration {
	var d sim.Duration
	for _, ck := range rec.chunks {
		d += e.link.txTime(ck.n + HeaderLen)
	}
	return d
}

// transmitData serializes one data segment on the wire and schedules its
// delivery at the peer — unless the fault plan drops it (the wire time is
// still spent: the segment was transmitted; it just never arrives) or
// corrupts it (it arrives flagged so the receiver's checksum verification
// rejects it).
func (e *Endpoint) transmitData(p *sim.Proc, rec *ackRecord) {
	e.link.wire[e.dir].Use(p, e.wireTime(rec))
	e.scheduleDelivery(rec)
}

// deliveredChunk is one MSS-granular wire chunk of an arriving (possibly
// super-) segment, with its judged fate. A dropped chunk simply isn't in
// the arrival; the chunks behind the hole still arrive and surface as
// out-of-order at the receiver.
type deliveredChunk struct {
	seq     int64
	n       int
	pieces  []segPiece
	corrupt bool
}

// scheduleDelivery judges each chunk's fate at the transmit instant and
// schedules the survivors' arrival after the propagation delay — one
// receive event per (super-)segment, however many chunks it carries.
func (e *Endpoint) scheduleDelivery(rec *ackRecord) {
	now := e.host.eng.Now()
	var arrive []deliveredChunk
	for _, ck := range rec.chunks {
		switch e.judgeSegment(now) {
		case segDrop:
		case segCorrupt:
			arrive = append(arrive, deliveredChunk{seq: ck.seq, n: ck.n, pieces: ck.pieces, corrupt: true})
		default:
			arrive = append(arrive, deliveredChunk{seq: ck.seq, n: ck.n, pieces: ck.pieces})
		}
	}
	if len(arrive) == 0 {
		return
	}
	peer := e.peer
	e.host.eng.After(e.link.delay, func() {
		peer.deliver(arrive)
	})
}

// armRTO (re)starts the retransmission timer when in-flight segments exist
// on a faulty wire. Reliable wires never arm it: delivery is guaranteed by
// construction, so the fault-free fast path stays timer-free.
func (e *Endpoint) armRTO() {
	if !e.faulty() || len(e.ackFIFO) == 0 {
		return
	}
	if e.rtoTimer != nil && e.rtoTimer.Pending() {
		return
	}
	if e.rto == 0 {
		e.rto = minRTO
	}
	e.rtoTimer = e.host.eng.Wheel().Schedule(e.rto, e.onRTO)
}

// onRTO fires when the oldest in-flight segment's ack is overdue: go-back-N
// retransmits the whole window, doubles the timeout, and re-arms.
func (e *Endpoint) onRTO() {
	if len(e.ackFIFO) == 0 {
		return
	}
	e.rto *= 2
	if e.rto > maxRTO {
		e.rto = maxRTO
	}
	e.recoverUntil = e.sndNxt
	e.retransmit()
	e.rtoTimer = e.host.eng.Wheel().Schedule(e.rto, e.onRTO)
}

// retransmit re-sends every in-flight segment (go-back-N) from engine
// context. The stored pieces go back on the wire as-is: the payload copy
// (copy mode) was charged at admission and is NOT re-charged; ref pieces
// re-checksum through the warm checksum cache (one lookup per piece) or pay
// a full pass when no cache exists, exactly like the first transmission's
// cold/warm split. No new agg references are taken — the ack record's are
// re-used.
func (e *Endpoint) retransmit() {
	if !e.inStall {
		e.inStall = true
		e.stallStart = e.host.eng.Now()
	}
	costs := e.host.costs
	link := e.link
	for _, rec := range e.ackFIFO {
		rec.retx = true
		cpu := costs.MbufAlloc + costs.Packet
		for _, ck := range rec.chunks {
			for _, pc := range ck.pieces {
				switch {
				case pc.agg == nil:
					cpu += costs.Cksum(len(pc.data))
				case e.host.ck != nil:
					cpu += costs.CksumLookup // cached since the first transmission
				default:
					cpu += costs.Cksum(pc.agg.Len())
				}
			}
		}
		if len(rec.chunks) > 1 {
			cpu += sim.Duration(len(rec.chunks)-1) * costs.SegChunk
		}
		// Resend what is unacknowledged at expiry: a partial ack that
		// already trimmed the record leaves only the chunks covering the
		// hole, so no whole-super-segment re-charge. The snapshot keeps
		// the resend consistent with the cpu charge computed above even
		// if another ack trims the live record while the charge queues
		// (an ack racing a queued retransmit was resent whole before
		// offload existed, and still is).
		snap := &ackRecord{seq: rec.seq, n: rec.n, chunks: rec.chunks}
		e.host.charge(cpu, func() {
			link.wire[e.dir].UseAsync(e.wireTime(snap), func() {
				e.scheduleDelivery(snap)
			})
			e.host.stats.PktsOut++
			e.host.stats.SegsOut += int64(len(snap.chunks))
			e.host.stats.BytesOut += int64(snap.n)
			e.host.stats.RetransSegs++
			e.host.stats.RetransBytes += int64(snap.n)
		})
	}
}

// transmitFIN sends the half-close marker.
func (e *Endpoint) transmitFIN(p *sim.Proc) {
	link := e.link
	e.host.Use(p, e.host.costs.Packet/2)
	link.wire[e.dir].Use(p, link.txTime(HeaderLen))
	peer := e.peer
	e.host.eng.After(link.delay, func() {
		peer.host.charge(peer.host.costs.Packet/2, func() {
			peer.rcvClosed = true
			peer.rcvWait.Wake(-1)
			if peer.rcvNotify != nil {
				peer.rcvNotify()
			}
		})
	})
}

// deliver runs when a data (super-)segment arrives at the receiving host:
// interrupt and early-demultiplexing work, checksum verification, reader
// wake-up, and the cumulative acknowledgment back to the sender — all
// charged once per arrival event however many MSS chunks it carries (the
// GRO half of segment offload; without offload each event is one chunk,
// exactly the pre-offload receive path). The Agg/Data distinction each
// piece's sender chose survives coalescing.
//
// Go-back-N discipline, per chunk: only the next expected chunk
// (seq == rcvNxt) is accepted, so a hole inside a super-segment accepts
// the prefix and discards the rest. A corrupted chunk is discarded
// unacknowledged AFTER the checksum pass that caught it was paid. An
// out-of-order chunk (a predecessor was lost) or a duplicate (spurious
// retransmission) is discarded and the current cumulative ack repeated
// immediately — never delayed — which the sender counts toward fast
// retransmit.
func (e *Endpoint) deliver(chunks []deliveredChunk) {
	costs := e.host.costs
	total := 0
	for _, ck := range chunks {
		total += ck.n
	}
	cpu := costs.Interrupt + costs.Packet + costs.Demux + costs.Cksum(total)
	if len(chunks) > 1 {
		cpu += sim.Duration(len(chunks)-1) * costs.SegChunk
	}
	e.host.charge(cpu, func() {
		e.host.stats.PktsIn++
		e.host.stats.BytesIn += int64(total)
		advanced, dup := false, false
		for _, ck := range chunks {
			switch {
			case ck.corrupt:
				e.host.stats.CorruptIn++
			case ck.seq != e.rcvNxt:
				dup = true // hole or duplicate; repeat the cumulative ack
			default:
				e.rcvNxt += int64(ck.n)
				advanced = true
				if !e.rcvShut {
					e.queueDeliveries(ck.pieces)
				}
			}
		}
		if advanced && !e.rcvShut {
			e.rcvWait.Wake(-1)
			if e.rcvNotify != nil {
				e.rcvNotify()
			}
		}
		switch {
		case dup:
			e.flushAck()
		case advanced:
			if e.host.offload {
				e.scheduleAck()
			} else {
				e.sendAck(e.rcvNxt)
			}
		}
	})
}

// queueDeliveries appends one accepted chunk's pieces to the receive
// queue. With offload on, contiguous in-order arrivals of the same
// representation coalesce into the queue's tail delivery (the GRO merge):
// the reader drains a whole super-segment — or several — in one Recv
// instead of one per MSS. Merging is bounded at SuperSeg so an idle
// reader cannot accrete one unbounded delivery.
func (e *Endpoint) queueDeliveries(pieces []segPiece) {
	for _, pc := range pieces {
		if e.host.offload && len(e.rcvQ) > 0 {
			tail := &e.rcvQ[len(e.rcvQ)-1]
			if tail.Len() < e.host.ocfg.SuperSeg {
				if pc.agg != nil && tail.Agg != nil {
					tail.Agg.Concat(pc.agg) // tail is rcvQ's own clone; safe to grow
					continue
				}
				if pc.agg == nil && tail.Data != nil {
					tail.Data = append(tail.Data, pc.data...)
					continue
				}
			}
		}
		d := Delivery{}
		if pc.agg != nil {
			d.Agg = pc.agg.Clone() // receiver's reference; sender's released on ack
		} else {
			// Copy mode: wire bytes land in receive socket buffers; a
			// later Recv copies them out to the application.
			d.Data = append([]byte(nil), pc.data...)
		}
		e.rcvQ = append(e.rcvQ, d)
	}
}

// sendAck returns a cumulative acknowledgment (every byte below ackNo has
// arrived) to the peer — the data sender — as its own ack packet, counted
// on the host's ack meter.
func (e *Endpoint) sendAck(ackNo int64) {
	e.host.stats.AcksOut++
	link := e.link
	done := link.wire[e.dir].UseAsync(link.txTime(AckLen), nil)
	sender := e.peer
	e.host.eng.At(done.Add(link.delay), func() {
		sender.host.charge(sender.host.costs.Packet/2, func() {
			sender.acked(ackNo)
		})
	})
}

// scheduleAck notes one in-order receive event under the delayed-ack
// policy: every AckEvery-th event acks immediately; otherwise the wheel
// timer guarantees an ack within AckDelay, which bounds the classic
// Nagle/delayed-ack stall (a sender holding a sub-MSS tail for this ack
// waits out the delay, never deadlocks).
func (e *Endpoint) scheduleAck() {
	e.ackEvents++
	if e.ackEvents >= e.host.ocfg.AckEvery {
		e.flushAck()
		return
	}
	if e.ackTimer == nil || !e.ackTimer.Pending() {
		e.ackTimer = e.host.eng.Wheel().Schedule(e.host.ocfg.AckDelay, e.onAckDelay)
	}
}

// onAckDelay fires when a delayed ack times out on the wheel.
func (e *Endpoint) onAckDelay() {
	if e.ackEvents > 0 {
		e.flushAck()
	}
}

// flushAck sends the cumulative ack now and clears delayed-ack state.
// With delayed acks off this is exactly sendAck.
func (e *Endpoint) flushAck() {
	e.ackEvents = 0
	if e.ackTimer != nil {
		e.ackTimer.Cancel()
		e.ackTimer = nil
	}
	e.sendAck(e.rcvNxt)
}

// piggybackAck folds a pending delayed ack into a data segment this
// endpoint is emitting toward the data's sender: the segment's header
// carries the cumulative ack for free, so no separate ack packet, no ack
// wire time, and no ack processing charge — the request/response pattern
// delayed acks exist for. The ack information arrives after the
// propagation delay like the segment that carries it.
func (e *Endpoint) piggybackAck() {
	if e.ackEvents == 0 {
		return
	}
	e.ackEvents = 0
	if e.ackTimer != nil {
		e.ackTimer.Cancel()
		e.ackTimer = nil
	}
	ackNo := e.rcvNxt
	sender := e.peer
	e.host.eng.After(e.link.delay, func() {
		sender.acked(ackNo)
	})
}

// acked processes a cumulative acknowledgment: every segment wholly below
// ackNo releases its send-buffer space, buffer references, and done
// callbacks, in admission order. A duplicate ack (no progress) counts
// toward fast retransmit; the third in a row re-sends the window without
// waiting out the RTO.
func (e *Endpoint) acked(ackNo int64) {
	if ackNo <= e.sndUna {
		// No progress. Three duplicate acks in a row signal a lost head
		// segment while later ones still arrive.
		if ackNo == e.sndUna && len(e.ackFIFO) > 0 {
			e.dupAcks++
			// Early retransmit (à la RFC 5827): a hole near the window's
			// tail can't gather three duplicate acks — there aren't three
			// segments behind it — so the threshold shrinks with the
			// outstanding count rather than waiting out the RTO.
			thresh := 3
			if n := len(e.ackFIFO); n < 4 {
				thresh = n - 1
				if thresh < 1 {
					thresh = 1
				}
			}
			if e.dupAcks >= thresh && e.sndUna >= e.recoverUntil {
				e.dupAcks = 0
				e.recoverUntil = e.sndNxt
				e.host.stats.FastRetransmits++
				e.retransmit()
				e.restartRTO()
			}
		}
		return
	}
	e.dupAcks = 0
	if e.inStall {
		e.stallAccum += e.host.eng.Now().Sub(e.stallStart)
		e.inStall = false
	}
	var freed int
	for len(e.ackFIFO) > 0 && e.ackFIFO[0].seq < ackNo {
		rec := e.ackFIFO[0]
		if rec.end() <= ackNo {
			e.ackFIFO = e.ackFIFO[1:]
			if !rec.retx && e.faulty() {
				e.sampleRTT(e.host.eng.Now().Sub(rec.sent))
			}
			freed += rec.trimAcked(rec.end())
			continue
		}
		// Partial ack inside a super-segment: the receiver accepted a
		// chunk prefix up to a hole. Trim the acknowledged chunks so
		// retransmission re-sends only the pieces covering the hole (no
		// whole-super-segment re-charge). Karn: no RTT sample until the
		// record fully acks.
		freed += rec.trimAcked(ackNo)
		break
	}
	e.sndUna = ackNo
	e.sndBytes -= freed
	// Forward progress ends a loss episode: collapse any exponential
	// backoff back to the estimator's RTO. Karn's rule keeps retransmitted
	// windows out of the estimator, so without this reset a conn that
	// recovers through a few timeouts would keep its ratcheted-up timer
	// and pay seconds for the next stray drop.
	if e.rto > 0 && e.srtt > 0 {
		e.rto = e.srtt + 4*e.rttvar
		if e.rto < minRTO {
			e.rto = minRTO
		}
	}
	if !e.refMode {
		e.reserveSock()
	}
	// Window space freed: wake every parked sender in arrival order; each
	// re-checks the space in Send's wait loop.
	e.sndWait.Wake(-1)
	if e.sndNotify != nil {
		e.sndNotify()
	}
	// The timer now guards the next-oldest in-flight segment, or nothing.
	e.restartRTO()
	// A draining ack FIFO can end an auto-cork hold (the queue's sub-MSS
	// tail flushes once nothing is in flight), and the last ack of a
	// closing endpoint releases the FIN.
	if len(e.sndQ) > 0 || (e.closing && len(e.ackFIFO) == 0) {
		e.wakePump()
	}
}

// restartRTO arms a fresh retransmission timer for the current window (or
// cancels it when nothing is in flight).
func (e *Endpoint) restartRTO() {
	if e.rtoTimer != nil {
		e.rtoTimer.Cancel()
		e.rtoTimer = nil
	}
	e.armRTO()
}

// sampleRTT feeds one round-trip measurement into the Jacobson estimator
// and derives the next RTO. Only never-retransmitted segments are sampled
// (Karn's algorithm): a retransmitted segment's ack is ambiguous.
func (e *Endpoint) sampleRTT(rtt sim.Duration) {
	if rtt < 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = rtt
		e.rttvar = rtt / 2
	} else {
		diff := rtt - e.srtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += (diff - e.rttvar) / 4
		e.srtt += (rtt - e.srtt) / 8
	}
	e.rto = e.srtt + 4*e.rttvar
	if e.rto < minRTO {
		e.rto = minRTO
	}
	if e.rto > maxRTO {
		e.rto = maxRTO
	}
}

// Recv returns the next delivered chunk, blocking until data or the peer's
// half-close arrives. ok is false at end of stream and after a local
// receive shutdown.
func (e *Endpoint) Recv(p *sim.Proc) (Delivery, bool) {
	for len(e.rcvQ) == 0 {
		if e.rcvClosed || e.rcvShut {
			return Delivery{}, false
		}
		e.rcvWait.Wait(p)
	}
	d := e.rcvQ[0]
	e.rcvQ = e.rcvQ[1:]
	return d, true
}

// ShutdownRecv abandons the endpoint's receive direction: queued deliveries
// release their buffer references, blocked readers return !ok, and future
// arrivals are discarded — but still acknowledged, so the peer's sender
// drains instead of retransmitting into the void. Descriptor close calls
// this so an abandoned connection cannot leak the aggregates queued (or
// still in flight) toward it.
func (e *Endpoint) ShutdownRecv() {
	if e.rcvShut {
		return
	}
	e.rcvShut = true
	for _, d := range e.rcvQ {
		d.Release()
	}
	e.rcvQ = nil
	e.rcvWait.Wake(-1)
	if e.rcvNotify != nil {
		e.rcvNotify()
	}
}

// Close half-closes the endpoint's send direction: queued data drains, then
// a FIN is sent. The teardown cost is charged to the closer.
func (e *Endpoint) Close(p *sim.Proc) {
	if e.closing {
		return
	}
	e.closing = true
	e.host.Use(p, e.host.costs.TCPTeardown)
	e.wakePump()
}

// RecvReady reports whether Recv right now would return without parking:
// a delivery is queued or the peer's FIN has arrived.
func (e *Endpoint) RecvReady() bool { return len(e.rcvQ) > 0 || e.rcvClosed }

// CanSend reports whether sending n bytes right now would be admitted
// whole without parking on the transmit window.
func (e *Endpoint) CanSend(n int) bool { return e.tss-e.sndBytes >= n }

// SetRecvNotify registers fn to fire whenever the receive side becomes
// ready (a delivery lands or the peer half-closes).
func (e *Endpoint) SetRecvNotify(fn func()) { e.rcvNotify = fn }

// SetSendNotify registers fn to fire whenever transmit-window space frees.
func (e *Endpoint) SetSendNotify(fn func()) { e.sndNotify = fn }

// StallTime reports total loss-recovery stall on this endpoint's send
// direction: time between a first retransmission and the ack that made
// forward progress again, including a still-open episode. Observability
// samples this before and after a blocking wait to carve the delta out
// of the waiting request's phase.
func (e *Endpoint) StallTime() sim.Duration {
	d := e.stallAccum
	if e.inStall {
		d += e.host.eng.Now().Sub(e.stallStart)
	}
	return d
}

// PeerStallTime reports the peer sender's stall — the recovery time that
// delays this endpoint's reads.
func (e *Endpoint) PeerStallTime() sim.Duration { return e.peer.StallTime() }

// Drain blocks p until every admitted byte has been acknowledged. A drain
// is a push point: a sub-MSS tail held by an explicit cork is flushed
// first (the cork itself stays set), so Drain cannot wedge on data the
// pump is deliberately holding.
func (e *Endpoint) Drain(p *sim.Proc) {
	if e.queued > 0 {
		e.flush = true
		e.wakePump()
	}
	for e.sndBytes > 0 {
		e.sndWait.Wait(p)
	}
}
