package sim

import "math/bits"

// Time is a point in simulated time, measured in CPU cycles of the
// simulated machine's reference clock. All subsystems share this unit; a
// machine's frequency converts cycles to nanoseconds where needed.
type Time int64

// Sub returns t - u as an int64 cycle count.
func (t Time) Sub(u Time) int64 { return int64(t) - int64(u) }

// EventID is a value handle to a scheduled event: the slab slot the
// event occupies and the generation that slot had when the event was
// scheduled. An engine recycles a slot once its event has fired or its
// cancellation has been collected, and bumps the slot's generation when
// it does, so a handle may safely outlive its event: Cancel through a
// stale handle compares generations and does nothing. The zero EventID
// never names an event.
type EventID struct{ slot, gen uint32 }

// Engine is a single-queue discrete-event simulation loop: a clock plus
// a monotone priority queue of events. It is single-threaded by design.
// Events fire in (time, schedule order): same-time events fire in the
// order they were scheduled.
//
// The queue is a radix heap. last is the time of the latest event taken
// off the queue, and an event at time t waits in bucket
// bits.Len64(t^last): bucket 0 holds exactly the events at last, and
// bucket i > 0 the times that agree with last above bit i-1 and differ
// at it. Taking the next event drains bucket 0; when it is empty, the
// lowest non-empty bucket's earliest live time becomes last and the
// bucket is redistributed, entirely into lower buckets. Each bucket is
// FIFO: a direct push appends the newest event, and a redistribution
// happens only when every lower bucket is empty, so it appends an
// ordered run to empty buckets. Every bucket therefore stays in schedule
// order, and bucket 0 pops same-time events in exactly that order.
//
// Events live in an engine-owned slab and are addressed by EventID. A
// slot is recycled when its event fires, or when a cancelled event's
// entry (a tombstone, whose Fn is released at Cancel) reaches the front
// of the queue or is met while a bucket is redistributed. Steady-state
// scheduling therefore allocates nothing.
type Engine struct {
	now       Time
	fired     uint64
	scheduled uint64
	halted    bool

	last    Time // <= now: advanced only to a live event about to fire
	buckets [64][]qent
	head    int    // entries of buckets[0] already taken
	full    uint64 // bit i set when buckets[i] may be non-empty
	live    int    // scheduled events neither fired nor cancelled

	slab []slabEvent
	free []uint32 // recycled slab slots
}

// qent is one queue entry. It holds no pointers, so the garbage
// collector never scans the buckets.
type qent struct {
	at   Time
	slot uint32
}

// slabEvent is one slab slot: the callback of the event occupying it,
// nil once the event is cancelled or the slot is free.
type slabEvent struct {
	fn  func()
	gen uint32
}

// maxTime is the latest representable simulated time.
const maxTime = Time(1<<63 - 1)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still queued.
func (e *Engine) Pending() int { return e.live }

// Scheduled returns the number of events scheduled so far: every At
// and After call counts once. Events fire in (time, schedule
// order), so two events scheduled for the same time while this count
// moved by exactly one fire back to back, with nothing in between; a
// caller may then fire them as one event.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it would make the simulation acausal.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, slabEvent{gen: 1})
	}
	s := &e.slab[slot]
	s.fn = fn
	e.live++
	e.scheduled++
	b := bits.Len64(uint64(t ^ e.last))
	e.buckets[b] = append(e.buckets[b], qent{t, slot})
	e.full |= 1 << b
	return EventID{slot, s.gen}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel turns the event into a tombstone: its Fn is released now, and
// its slot is recycled when the queue next reaches the entry.
func (e *Engine) Cancel(id EventID) {
	if int(id.slot) >= len(e.slab) {
		return
	}
	s := &e.slab[id.slot]
	if s.gen != id.gen || s.fn == nil {
		return
	}
	s.fn = nil
	e.live--
}

// release frees a slot, invalidating every handle to it.
func (e *Engine) release(slot uint32) {
	s := &e.slab[slot]
	s.fn = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	e.free = append(e.free, slot)
}

// Halt stops the run loop after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Step fires the next event, advancing the clock to its timestamp. It
// returns false if the queue is empty.
func (e *Engine) Step() bool { return e.fire(maxTime) }

// fire fires the next live event if it is due at or before deadline.
// The slot is released before Fn runs, so Fn may reuse it and a handle
// to the firing event is already stale.
func (e *Engine) fire(deadline Time) bool {
	q, ok := e.take(deadline)
	if !ok {
		return false
	}
	fn := e.slab[q.slot].fn
	e.release(q.slot)
	e.live--
	e.now = q.at
	e.fired++
	fn()
	return true
}

// take removes and returns the earliest live entry if it is due at or
// before deadline, dropping the tombstones it passes.
func (e *Engine) take(deadline Time) (qent, bool) {
	for {
		b := e.buckets[0]
		for e.head < len(b) {
			q := b[e.head]
			if e.slab[q.slot].fn == nil {
				e.head++
				e.release(q.slot)
				continue
			}
			if q.at > deadline {
				return qent{}, false
			}
			e.head++
			return q, true
		}
		e.buckets[0], e.head = b[:0], 0
		e.full &^= 1
		if !e.refill(deadline) {
			return qent{}, false
		}
	}
}

// refill advances last to the earliest live time and moves that time's
// events into bucket 0. Bucket 0 must be empty. It reports false,
// leaving last alone, when no live event is left or the earliest is
// after deadline; peeking past the clock would otherwise forbid
// scheduling between the clock and that event.
func (e *Engine) refill(deadline Time) bool {
	for m := e.full &^ 1; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := e.buckets[i]
		first, found := Time(0), false
		for _, q := range b {
			if e.slab[q.slot].fn != nil && (!found || q.at < first) {
				first, found = q.at, true
			}
		}
		if found && first > deadline {
			return false
		}
		if found {
			e.last = first
		}
		for _, q := range b {
			if e.slab[q.slot].fn == nil {
				e.release(q.slot)
				continue
			}
			j := bits.Len64(uint64(q.at ^ first))
			e.buckets[j] = append(e.buckets[j], q)
			e.full |= 1 << j
		}
		e.buckets[i] = b[:0]
		e.full &^= 1 << i
		if found {
			return true
		}
	}
	return false
}

// Run fires events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to deadline (if it has not already passed it). Events after the deadline
// remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted && e.fire(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}
