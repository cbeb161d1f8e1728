// Package sim provides the deterministic discrete-event simulation engine
// that the IO-Lite reproduction runs on: a virtual clock, a typed event
// heap, a cooperative process model, FIFO resources for modelling a CPU,
// and the calibrated cost model approximating the paper's 333 MHz
// Pentium II testbed.
//
// All simulated activity is single-threaded from the engine's point of view:
// exactly one of {engine, some process} runs at any instant, so simulated
// state needs no locking and every run is reproducible. Each process runs
// on a coroutine (iter.Pull): the engine switches into it to resume it and
// it switches back when it blocks, with no channel hand-off and no
// allocation. A finished process's coroutine is reused by the next one
// started. A panic in a process propagates out of Engine.Run to its
// caller. Engine.Close unwinds every process still blocked, running its
// defers, and drops pending events, so a closed world holds no goroutine
// and nothing the engine still references.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Time is an absolute instant on the virtual clock, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is re-exported so callers do not need to import time just to
// express simulated durations.
type Duration = time.Duration

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback. Events at equal instants fire in schedule
// order (seq breaks ties) so runs are deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the heap order: earlier instant first, then schedule order.
// seq is unique, so the order is total and any heap pops events in the
// same sequence.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of events held by value, so scheduling
// and firing an event allocate nothing once the backing array has grown.
type eventHeap []event

// push adds ev, sifting it up from the last leaf.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback so the array does not pin it
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with New.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool

	// procs tracks live simulated processes, for leak diagnostics and for
	// Close; nprocs numbers them in start order. idle holds the
	// coroutines of finished procs, for Go to reuse.
	procs  map[*Proc]struct{}
	nprocs uint64
	idle   []*coro

	// running is the proc currently dispatched (nil in engine context);
	// attribution hooks use it to find whose work is being charged.
	running *Proc

	// wheel is the engine's shared timer wheel, created on first use (see
	// Engine.Wheel in wheel.go).
	wheel *Wheel
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at instant t. Scheduling in the past panics: it
// always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// Step runs the earliest pending event and reports whether one existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps not after t, then sets the clock
// to t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// LiveProcs reports how many simulated processes have been started and have
// not yet returned. Useful for detecting leaked (permanently blocked)
// processes in tests.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// Close tears the world down. It stops every live proc in start order:
// a parked proc's blocking call panics with an internal sentinel that
// unwinds its stack, running its defers, and the proc exits; a proc that
// never ran exits without running. A blocking call in those defers
// unwinds at once. Close then ends the idle coroutines kept for reuse and
// drops every pending event and the shared wheel, so no goroutine is left
// and nothing the simulation built stays reachable from the engine.
// Close panics when called from a proc; calling it again is a no-op.
func (e *Engine) Close() {
	if e.running != nil {
		panic(fmt.Sprintf("sim: Close called from %v", e.running))
	}
	// A proc's defers may start procs; those are stopped before they run,
	// on the second pass.
	for len(e.procs) > 0 {
		live := make([]*Proc, 0, len(e.procs))
		for p := range e.procs {
			live = append(live, p)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
		for _, p := range live {
			p.resume(true)
			p.exit()
		}
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
	e.events = nil
	e.wheel = nil
}

// Running returns the proc currently executing, or nil when the engine
// itself (an event callback) is running.
func (e *Engine) Running() *Proc { return e.running }
