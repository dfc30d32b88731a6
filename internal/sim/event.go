package sim

// Time is a point in simulated time, measured in CPU cycles of the
// simulated machine's reference clock. All subsystems share this unit; a
// machine's frequency converts cycles to nanoseconds where needed.
type Time int64

// Sub returns t - u as an int64 cycle count.
func (t Time) Sub(u Time) int64 { return int64(t) - int64(u) }

// Event is a scheduled callback in the simulation.
//
// Same-time events are totally ordered by a canonical key (slot, minor)
// that is a pure function of the simulation's causal structure rather
// than of scheduling call order across the whole engine: an event
// scheduled while event p (the parent) is firing gets slot 2*exec(p)+1
// and a per-parent minor index, while an event scheduled outside any
// handler (a root) gets slot 2*F (F = events fired so far) and a global
// root index. exec(p) is p's global execution rank. Because children of
// earlier-executed parents are always scheduled earlier, this order is
// identical to the classic global-sequence tie-break on a sequential
// engine — but unlike a global sequence it can be computed shard-locally
// and merged, which is what lets ShardedEngine replay the exact same
// total order.
type Event struct {
	// At is the simulated time the event fires.
	At Time
	// Fn is invoked when the event fires. It may schedule further events.
	Fn func()

	// slot/minor are the canonical tie-break key (see above). While
	// parent is non-nil the slot is provisional: it resolves to
	// 2*parent.exec+1 once the parent's global execution rank is known
	// (immediately on the sequential engine; at the window barrier on the
	// sharded engine).
	slot   int64
	minor  int64
	parent *Event
	// exec is the event's global execution rank. On a shard it first
	// carries the shard-local execution stamp and is rewritten to the
	// global rank at the merge barrier; the remap is monotone per shard,
	// so comparisons through it never change.
	exec int64

	owner *eventHeap // queue currently holding the event, nil otherwise
	index int32      // heap index; -1 when not queued; int32 keeps Event at 64 bytes
	dead  bool
}

// Cancel removes the event from its queue immediately, releasing the
// queue's references to it (and its Fn closure) rather than waiting for
// its fire time — long-horizon timers would otherwise pin their closures
// for the whole horizon. Cancelling an already-fired or already-cancelled
// event is a no-op. Cancel must be called from the event's own shard.
func (e *Event) Cancel() {
	e.dead = true
	e.Fn = nil
	if e.owner != nil && e.index >= 0 {
		e.owner.remove(int(e.index))
		e.owner = nil
	}
}

// Cancelled reports whether Cancel has been called on the event.
func (e *Event) Cancelled() bool { return e.dead }

// before reports whether e fires before f under the canonical order.
// Events with unresolved (provisional) keys always belong to the window
// currently executing, so their eventual slots exceed every resolved
// slot at the same timestamp; two unresolved events are on the same
// shard and compare by their parents' execution stamps.
func (e *Event) before(f *Event) bool {
	if e.At != f.At {
		return e.At < f.At
	}
	er, fr := e.parent == nil, f.parent == nil
	if er != fr {
		return er
	}
	if !er {
		if e.parent.exec != f.parent.exec {
			return e.parent.exec < f.parent.exec
		}
		return e.minor < f.minor
	}
	if e.slot != f.slot {
		return e.slot < f.slot
	}
	return e.minor < f.minor
}

// resolve finalizes a provisional key once the parent's execution rank
// is known.
func (e *Event) resolve() {
	if e.parent != nil {
		e.slot = 2*e.parent.exec + 1
		e.parent = nil
	}
}

// eventHeap is a binary min-heap of events under the canonical order,
// typed so the hot path calls (*Event).before directly instead of going
// through container/heap's interface dispatch. Every queued event
// records its position in index, which is what lets Cancel remove it
// eagerly. Sifts move a hole and write each displaced event once,
// rather than swapping pairs. Keys are unique, so the pop order is a
// function of the keys alone, never of the heap's shape.
type eventHeap []*Event

// push queues ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, nil)
	h.up(ev, len(*h)-1)
}

// pop removes and returns the earliest event. The heap must be
// non-empty. The root's hole first walks down the earlier-child path to
// a leaf, then the displaced last event sifts up from there (Floyd's
// bottom-up pop): the last event nearly always belongs near the leaves,
// so this takes about half the comparisons of sifting it down from the
// root.
func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	top.index = -1
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		ce := q[c]
		q[i], ce.index = ce, int32(i)
		i = c
	}
	q.up(last, i)
	return top
}

// remove deletes the event at position i.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	ev, last := q[i], q[n]
	q[n] = nil
	*h = q[:n]
	ev.index = -1
	if i == n {
		return
	}
	if !h.down(last, i) {
		h.up(last, i)
	}
}

// up fills the hole at i with ev, first moving ev's later ancestors
// down into the hole.
func (h eventHeap) up(ev *Event, i int) {
	for i > 0 {
		p := (i - 1) / 2
		pe := h[p]
		if !ev.before(pe) {
			break
		}
		h[i], pe.index = pe, int32(i)
		i = p
	}
	h[i], ev.index = ev, int32(i)
}

// down fills the hole at i0 with ev, first moving ev's earlier
// descendants up into the hole. It reports whether ev moved below i0.
func (h eventHeap) down(ev *Event, i0 int) bool {
	n := len(h)
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		ce := h[c]
		if !ce.before(ev) {
			break
		}
		h[i], ce.index = ce, int32(i)
		i = c
	}
	h[i], ev.index = ev, int32(i)
	return i > i0
}

// Queue is the scheduling interface of one event shard. On the
// sequential Engine every CPU shares the single queue (the engine
// itself); on a ShardedEngine each shard is its own queue and
// cross-shard scheduling must go through CrossAfter with a delay of at
// least the engine's lookahead.
type Queue interface {
	// Now returns the queue's current simulated time.
	Now() Time
	// At schedules fn at absolute time t on this queue.
	At(t Time, fn func()) *Event
	// After schedules fn d cycles from now on this queue.
	After(d Time, fn func()) *Event
	// CrossAfter schedules fn d cycles from now on dst. When dst is a
	// different shard, d must be at least the engine's lookahead (the
	// modeled cross-CPU latency floor that makes conservative windows
	// safe); same-queue calls are equivalent to After.
	CrossAfter(dst Queue, d Time, fn func()) *Event
	// Shard returns the queue's shard index.
	Shard() int
}

// Sim is the discrete-event engine interface shared by the sequential
// Engine and the conservative-window ShardedEngine. Both drive the same
// canonical event order, so a workload that respects the shard-safety
// contract (events touch only their own shard's state; cross-shard
// effects only via CrossAfter) produces bit-identical results on either.
type Sim interface {
	Now() Time
	// At/After schedule on shard 0 — the natural home of kernel-level
	// activity for single-shard workloads (on the sequential engine they
	// are the only queue). Shard-aware code uses Queue(i) instead.
	At(t Time, fn func()) *Event
	After(d Time, fn func()) *Event
	Run()
	RunUntil(deadline Time)
	Halt()
	Fired() uint64
	Pending() int
	// Shards returns the number of event shards (1 for Engine).
	Shards() int
	// Queue returns shard i's scheduling interface.
	Queue(i int) Queue
	// Lookahead returns the conservative window width (0 for Engine).
	Lookahead() Time
}

// Engine is a single-queue discrete-event simulation loop: a clock plus
// a priority queue of events. It is single-threaded by design;
// determinism comes from the canonical (time, slot, minor) total order.
// Engine implements both Sim (as a 1-shard engine) and Queue (as its
// own only shard).
type Engine struct {
	now    Time
	queue  eventHeap
	fired  uint64
	rootn  int64
	cur    *Event // event currently firing, for child attribution
	childn int64  // children scheduled by cur so far
	halted bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Shards returns 1: the sequential engine is its own single shard.
func (e *Engine) Shards() int { return 1 }

// Queue returns the engine itself; every CPU shares the one queue.
func (e *Engine) Queue(i int) Queue { return e }

// Shard returns 0.
func (e *Engine) Shard() int { return 0 }

// Lookahead returns 0: a single queue needs no conservative window.
func (e *Engine) Lookahead() Time { return 0 }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it would make the simulation acausal.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := &Event{At: t, Fn: fn}
	if e.cur != nil {
		// Child: keyed to the firing event's execution rank, which is
		// already final on the sequential engine.
		ev.slot = 2*e.cur.exec + 1
		ev.minor = e.childn
		e.childn++
	} else {
		ev.slot = 2 * int64(e.fired)
		ev.minor = e.rootn
		e.rootn++
	}
	ev.owner = &e.queue
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// CrossAfter schedules fn on dst d cycles from now. On the sequential
// engine every queue is the engine itself, so this is After.
func (e *Engine) CrossAfter(dst Queue, d Time, fn func()) *Event {
	return e.After(d, fn)
}

// Halt stops the run loop after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Step fires the next event, advancing the clock to its timestamp. It
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		ev.owner = nil
		if ev.dead {
			continue
		}
		e.now = ev.At
		ev.exec = int64(e.fired)
		e.fired++
		e.cur, e.childn = ev, 0
		ev.Fn()
		e.cur = nil
		return true
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
	for !e.halted && len(e.queue) > 0 && e.queue[0].At <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
