package sim

// Wheel is a hierarchical timer wheel: the shared timing substrate that
// retransmit timers, backoff sleeps, and delayed-failure injection all
// hang off. A wheel trades precision for cost the way kernel timer wheels
// do — timers land in slots of one tick's width and fire at slot
// boundaries — which fits its users exactly: an RTO or a backoff delay is
// a coarse bound, not an instant, and the overwhelmingly
// common operation is Cancel (the ack arrived, the response landed) which
// must be O(1).
//
// The wheel has wheelLevels levels of wheelSlots slots each. Level 0 slots
// are one tick wide; each higher level's slots are wheelSlots times wider.
// A timer further out than level 0 covers parks in the coarser level that
// can hold it and cascades down as the wheel turns, so scheduling, firing,
// and cascading are all O(1) amortized per timer.
//
// The wheel advances lazily on the engine's event heap: it keeps exactly
// one pending wake event, armed at the earliest occupied slot boundary, so
// an idle wheel costs the engine nothing and a canceled timer leaves at
// most one spurious no-op wake behind.
const (
	wheelSlots  = 64
	wheelLevels = 4
)

// DefaultTick is the granularity of an engine's shared wheel: fine enough
// that a 1 ms minimum RTO or a 5 ms backoff is off by at most 2%, coarse
// enough that four levels span over an hour of virtual time.
const DefaultTick = 50 * Microsecond

// Microsecond and Millisecond re-export the time units for wheel-tick and
// timeout arithmetic.
const (
	Microsecond = Duration(1000)
	Millisecond = Duration(1000000)
)

// Timer is one scheduled callback on a wheel. The zero value is invalid;
// Schedule returns live timers.
type Timer struct {
	fn       func()
	at       int64 // absolute expiry, in ticks
	canceled bool
	fired    bool
}

// Cancel stops the timer and reports whether it was still pending (false
// means the callback already fired). Cancel is O(1): the slot entry stays
// behind and is skipped when its slot drains.
func (t *Timer) Cancel() bool {
	if t.fired || t.canceled {
		return false
	}
	t.canceled = true
	return true
}

// Pending reports whether the timer is still armed.
func (t *Timer) Pending() bool { return !t.fired && !t.canceled }

// Wheel is a hierarchical timer wheel bound to one engine.
type Wheel struct {
	eng  *Engine
	tick Duration

	// cursor is the current wheel time in ticks (floor(now/tick)).
	cursor int64
	levels [wheelLevels][wheelSlots][]*Timer
	count  int // pending (non-canceled) timers

	// wakeAt is the tick the armed engine event will advance to; <0 when
	// no wake is armed.
	wakeAt int64
}

// NewWheel creates a wheel with the given tick on e.
func NewWheel(e *Engine, tick Duration) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	w := &Wheel{eng: e, tick: tick, wakeAt: -1}
	w.cursor = w.ticks(e.Now())
	return w
}

// Wheel returns the engine's shared timer wheel (DefaultTick granularity),
// creating it on first use. Sharing one wheel is the point: retransmit
// and backoff timers from every subsystem land in the same slots
// and ride the same wake events.
func (e *Engine) Wheel() *Wheel {
	if e.wheel == nil {
		e.wheel = NewWheel(e, DefaultTick)
	}
	return e.wheel
}

// Tick returns the wheel's slot granularity.
func (w *Wheel) Tick() Duration { return w.tick }

// Pending reports how many timers are armed (canceled ones are excluded).
func (w *Wheel) Pending() int { return w.count }

// ticks converts an absolute instant to wheel ticks, rounding up so a
// timer never fires early.
func (w *Wheel) ticks(t Time) int64 {
	return (int64(t) + int64(w.tick) - 1) / int64(w.tick)
}

// Schedule arms fn to fire d from now (rounded up to the next tick
// boundary) and returns its timer. Engine or proc context.
func (w *Wheel) Schedule(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return w.ScheduleAt(w.eng.Now().Add(d), fn)
}

// ScheduleAt arms fn to fire at instant at (rounded up to a tick).
func (w *Wheel) ScheduleAt(at Time, fn func()) *Timer {
	t := &Timer{fn: fn, at: w.ticks(at)}
	if t.at <= w.cursor {
		t.at = w.cursor + 1 // a due-now timer fires on the next boundary
	}
	w.place(t)
	w.count++
	w.arm(t.at)
	return t
}

// place files t into the finest level whose span reaches its expiry.
func (w *Wheel) place(t *Timer) {
	delta := t.at - w.cursor
	span := int64(wheelSlots)
	for lv := 0; lv < wheelLevels; lv++ {
		if delta <= span || lv == wheelLevels-1 {
			// Slot index within this level's ring. Level 0 slots are
			// addressed by expiry tick; level L>0 by expiry divided by the
			// slot width, so cascading drains a coarse slot exactly when
			// its sub-range begins.
			width := int64(1)
			for i := 0; i < lv; i++ {
				width *= wheelSlots
			}
			idx := (t.at / width) % wheelSlots
			w.levels[lv][idx] = append(w.levels[lv][idx], t)
			return
		}
		span *= wheelSlots
	}
}

// arm makes sure an engine wake event exists at or before tick at.
func (w *Wheel) arm(at int64) {
	if w.wakeAt >= 0 && w.wakeAt <= at {
		return
	}
	w.wakeAt = at
	wake := at
	w.eng.At(Time(wake*int64(w.tick)), func() { w.advance(wake) })
}

// advance turns the wheel to tick target: level-0 slots on the way fire,
// coarser slots whose sub-range begins cascade down. Spurious wakes (a
// fresher wake was armed, or every timer canceled) are cheap no-ops.
func (w *Wheel) advance(target int64) {
	if w.wakeAt == target {
		w.wakeAt = -1
	}
	if target <= w.cursor {
		return
	}
	for w.cursor < target {
		w.cursor++
		w.drain(0, w.cursor%wheelSlots)
		// Cascade: when the cursor crosses a coarser slot boundary, that
		// level's current slot re-files into finer levels.
		width := int64(wheelSlots)
		for lv := 1; lv < wheelLevels && w.cursor%width == 0; lv++ {
			w.drain(lv, (w.cursor/width)%wheelSlots)
			width *= wheelSlots
		}
	}
	w.rearm()
}

// drain empties one slot: due timers fire, canceled ones drop, and (for
// coarse levels) not-yet-due timers re-file into finer levels.
func (w *Wheel) drain(lv int, idx int64) {
	slot := w.levels[lv][idx]
	if len(slot) == 0 {
		return
	}
	w.levels[lv][idx] = nil
	for _, t := range slot {
		switch {
		case t.canceled:
			w.count--
		case t.at <= w.cursor:
			t.fired = true
			w.count--
			t.fn()
		default:
			w.place(t)
		}
	}
}

// rearm schedules the next wake at the earliest occupied slot, if any
// timers remain.
func (w *Wheel) rearm() {
	if w.count == 0 {
		return
	}
	earliest := int64(-1)
	width := int64(1)
	for lv := 0; lv < wheelLevels; lv++ {
		for idx := 0; idx < wheelSlots; idx++ {
			for _, t := range w.levels[lv][idx] {
				if !t.canceled && (earliest < 0 || t.at < earliest) {
					earliest = t.at
				}
			}
		}
		width *= wheelSlots
	}
	if earliest < 0 {
		return
	}
	w.arm(earliest)
}

// Sleep parks p for d, timed by the wheel instead of a private engine
// event — the backoff primitive. Precision is one tick, rounded up.
func (w *Wheel) Sleep(p *Proc, d Duration) {
	done := false
	w.Schedule(d, func() {
		done = true
		p.Unpark()
	})
	for !done {
		p.Park()
	}
}
