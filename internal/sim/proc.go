package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Proc is a simulated process: a function running on a coroutine
// (iter.Pull) in lock-step with the engine. At any instant exactly one of
// {engine, one proc} executes. The engine resumes a proc by calling into
// its coroutine, and the proc parks by yielding back; both are direct
// coroutine switches that allocate nothing, so simulated code never races
// and every interleaving is deterministic.
//
// Simulated code running inside the proc may call the blocking operations
// (Sleep, SleepUntil, Park) and anything built on them. Engine-side code
// (event callbacks) may call Unpark.
//
// A panic in a proc unwinds out of the event that resumed it, through
// Engine.Run, to Run's caller. Engine.Close stops parked procs: their
// blocking call panics with an internal sentinel, their defers run and
// they exit.
type Proc struct {
	eng  *Engine
	name string
	id   uint64 // start order, for Close

	// co is the coroutine the proc runs on. run and wake are the proc's
	// dispatch callbacks, made once so scheduling a resume allocates
	// nothing.
	co   *coro
	run  func()
	wake func()

	dead bool // set when the proc function has returned or been stopped

	// parkSeq counts Park calls; wakeSeq is the Park call the pending
	// Unpark was for, letting wake detect a stale wakeup.
	parkSeq uint64
	wakeSeq uint64
	waiting bool

	// attrib is an opaque attribution binding (the observability layer
	// stores the active span here); it rides the proc so charge hooks can
	// find whose request is paying for the work.
	attrib interface{}
}

// coro is an iter.Pull coroutine that runs procs one after another: when
// a proc's function returns, the coroutine parks on its engine's idle
// list and a later Go reuses it, so the engine starts a goroutine only
// for each proc running at once, not for each proc ever started. Besides
// saving a goroutine start per proc, this bounds race-detector memory: in
// Go 1.24 a coroutine goroutine's exit skips the detector's goroutine-end
// hook, so its detector state is never freed.
type coro struct {
	// next resumes the coroutine until it yields or returns; stop ends
	// it; yield parks it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// p and fn are the proc it runs, nil while idle.
	p  *Proc
	fn func(*Proc)
}

// errStopped is the panic value a blocking call raises when Engine.Close
// stops its proc; the coroutine recovers it after the proc's defers ran.
var errStopped = errors.New("sim: proc stopped by Engine.Close")

// Go starts fn as a simulated process at the current instant. fn runs on
// a coroutine, reused from a finished proc when one is idle, and only
// while the engine is suspended waiting for it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.nprocs++
	p := &Proc{eng: e, name: name, id: e.nprocs}
	if n := len(e.idle); n > 0 {
		p.co = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		p.co = e.newCoro()
	}
	p.co.p, p.co.fn = p, fn
	p.run = p.dispatch
	p.wake = func() {
		if p.parkSeq == p.wakeSeq {
			p.dispatch()
		}
	}
	e.procs[p] = struct{}{}
	// First dispatch happens as a regular event so that Go can be called
	// from engine or proc context alike.
	e.At(e.now, p.run)
	return p
}

// newCoro starts an empty coroutine on e. Each resume runs its current
// proc to completion, then the coroutine parks on e.idle until the next
// proc is assigned and dispatched.
func (e *Engine) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for c.runProc() {
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// runProc runs the coroutine's current proc and reports whether its
// function returned, rather than being stopped by Engine.Close. A panic
// other than the stop sentinel propagates to the engine.
func (c *coro) runProc() bool {
	p := c.p
	defer func() {
		p.exit()
		c.p, c.fn = nil, nil
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	c.fn(p)
	return true
}

// exit marks the proc finished and forgets it.
func (p *Proc) exit() {
	p.dead = true
	delete(p.eng.procs, p)
}

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// SetAttrib binds an opaque attribution context to the proc (nil clears).
func (p *Proc) SetAttrib(v interface{}) { p.attrib = v }

// Attrib returns the proc's attribution binding, nil if none.
func (p *Proc) Attrib() interface{} { return p.attrib }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// dispatch hands control to the proc until it parks or finishes. Must be
// called from engine context.
func (p *Proc) dispatch() {
	if p.dead {
		return
	}
	p.resume(false)
}

// resume switches into the coroutine, continuing it (or, with stop,
// ending it) with p as the running proc. The previous running proc is
// restored even if the proc panics.
func (p *Proc) resume(stop bool) {
	prev := p.eng.running
	p.eng.running = p
	defer func() { p.eng.running = prev }()
	if stop {
		p.co.stop()
	} else {
		p.co.next()
	}
}

// yield parks the proc and returns control to the engine. The proc resumes
// when something calls dispatch again, or unwinds if Engine.Close stops
// it. Must be called from proc context.
func (p *Proc) yield() {
	if !p.co.yield(struct{}{}) {
		panic(errStopped)
	}
}

// SleepUntil blocks the proc until instant t.
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.now {
		return
	}
	p.eng.At(t, p.run)
	p.yield()
}

// Sleep blocks the proc for duration d.
func (p *Proc) Sleep(d Duration) { p.SleepUntil(p.eng.now.Add(d)) }

// Park blocks the proc indefinitely until another party calls Unpark.
// It returns the instant at which the proc was resumed.
func (p *Proc) Park() Time {
	p.parkSeq++
	p.waiting = true
	p.yield()
	p.waiting = false
	return p.eng.now
}

// Unpark schedules p to resume at the current instant. It is a no-op if p is
// not currently parked (e.g. already woken); this makes wake-up notification
// idempotent, which waitqueue users rely on. May be called from engine or
// proc context.
func (p *Proc) Unpark() {
	if p.dead || !p.waiting {
		return
	}
	p.waiting = false // claim the wakeup so duplicate Unparks are no-ops
	p.wakeSeq = p.parkSeq
	p.eng.At(p.eng.now, p.wake)
}

// WaitQueue is a FIFO list of parked processes, the building block for all
// simulated blocking abstractions (pipe buffers, socket queues, condition
// variables).
type WaitQueue struct {
	q []*Proc
}

// Wait parks the calling proc on the queue until Wake releases it.
func (w *WaitQueue) Wait(p *Proc) {
	w.q = append(w.q, p)
	p.Park()
}

// Wake releases up to n waiters in FIFO order and reports how many were
// released. Wake(-1) releases all.
func (w *WaitQueue) Wake(n int) int {
	if n < 0 || n > len(w.q) {
		n = len(w.q)
	}
	released := w.q[:n]
	w.q = append([]*Proc(nil), w.q[n:]...)
	for _, p := range released {
		p.Unpark()
	}
	return n
}

// Len reports how many procs are parked on the queue.
func (w *WaitQueue) Len() int { return len(w.q) }

// String describes the proc for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
