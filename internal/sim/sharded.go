package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedEngine is a conservative-window parallel discrete-event engine:
// the event population is partitioned into S shards, each with its own
// clock and priority queue, and shards advance concurrently inside a
// window bounded by the horizon
//
//	H = min over shards of next-event time + lookahead
//
// Every event with At < H is safe to execute without seeing any not-yet-
// sent cross-shard event, because cross-shard scheduling (CrossAfter)
// carries a delay of at least the lookahead — in the simulated machine,
// the IPI latency floor. This is the classic Chandy–Misra–Bryant
// conservative discipline specialized to a shared-memory barrier design:
// run a window in parallel, then merge.
//
// Determinism is bit-exact with the sequential Engine. This engine
// executes events in the canonical (At, slot, minor) order (see event),
// which is the sequential engine's schedule order; the barrier performs
// a serial k-way merge of the per-shard execution lists to assign
// global execution ranks, resolves the keys of every event scheduled
// during the window, and only then delivers cross-shard events. The
// merge order — and therefore everything derived from it — is
// independent of the number of OS workers driving the shards, so
// results are identical at any worker count, including 1.
//
// The workload contract ("shard safety"): an event's Fn may touch only
// state owned by its shard, and may affect other shards only by
// CrossAfter with delay >= Lookahead(). Within that contract, a run on
// the ShardedEngine is byte-identical to the same run on Engine.
//
// Events are heap-allocated, since the barrier needs their provisional
// keys and parent links, but handles are the sequential engine's
// EventID: each shard keeps a slab of handle slots, recycled at the
// barrier once their events have fired or been cancelled.
type ShardedEngine struct {
	shards    []*Shard
	lookahead Time
	now       Time
	execn     int64
	rootn     int64
	running   bool
	halted    atomic.Bool

	// Window barrier: the coordinator (the Run caller) publishes the
	// horizon and an epoch, workers run their shard stripes and arrive;
	// both sides spin briefly and then fall back to a condvar so nested
	// use under an oversubscribed scheduler cannot burn cores.
	nworkers int
	winH     Time
	cursors  []int // barrier merge positions, one per shard, reused
	epoch    atomic.Int64
	arrived  atomic.Int64
	quit     atomic.Bool
	relMu    sync.Mutex
	relCond  *sync.Cond
	arrMu    sync.Mutex
	arrCond  *sync.Cond
	wg       sync.WaitGroup
}

// Shard is one shard's clock and event queue. It implements Queue.
type Shard struct {
	eng *ShardedEngine
	id  int

	now    Time
	queue  eventHeap
	cur    *event
	childn int64
	lxn    int64 // shard-local execution stamp counter

	executed []*event  // events run this window, in execution order
	fresh    []*event  // events scheduled this window (keys resolve at the barrier)
	outbox   []crossEv // cross-shard events to deliver at the barrier
	retired  []*event  // events cancelled this window (slots recycle at the barrier)

	// Handle slab of the events this shard scheduled: refs[i] holds the
	// event in local slot i (nil when free) and gens[i] its generation.
	// A handle's slot is i*shards + id, which names its home shard.
	refs []*event
	gens []uint32
	free []uint32
}

type crossEv struct {
	dst *Shard
	ev  *event
}

// NewSharded returns an engine with n shards and the given lookahead.
// The lookahead must be positive: it is the cross-shard latency floor
// that makes concurrent windows safe (for the simulated machine, the
// IPI latency).
func NewSharded(n int, lookahead Time) *ShardedEngine {
	if n <= 0 {
		panic("sim: non-positive shard count")
	}
	if lookahead <= 0 {
		panic("sim: sharded engine needs a positive lookahead")
	}
	se := &ShardedEngine{lookahead: lookahead, cursors: make([]int, n)}
	se.relCond = sync.NewCond(&se.relMu)
	se.arrCond = sync.NewCond(&se.arrMu)
	for i := 0; i < n; i++ {
		se.shards = append(se.shards, &Shard{eng: se, id: i})
	}
	se.nworkers = n
	if p := runtime.GOMAXPROCS(0); se.nworkers > p {
		se.nworkers = p
	}
	return se
}

// SetWorkers bounds how many OS workers drive the shards (clamped to
// [1, shards]). Results are identical at every setting; this is purely a
// resource knob for nesting engines inside an already-parallel harness.
func (se *ShardedEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(se.shards) {
		n = len(se.shards)
	}
	se.nworkers = n
}

// Now returns the engine's completed horizon: the latest timestamp of
// any executed event (or a RunUntil deadline). During a window it
// reflects the previous barrier; per-shard clocks are on Queue.Now.
func (se *ShardedEngine) Now() Time { return se.now }

// Fired returns the number of events executed so far.
func (se *ShardedEngine) Fired() uint64 { return uint64(se.execn) }

// Pending returns the number of live events queued across all shards.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, s := range se.shards {
		n += len(s.queue)
		for _, c := range s.outbox {
			if c.ev.fn != nil {
				n++
			}
		}
	}
	return n
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Queue returns shard i.
func (se *ShardedEngine) Queue(i int) Queue { return se.shards[i] }

// Lookahead returns the conservative window width.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// Halt stops the run loop at the next window barrier. Note that unlike
// the sequential engine the remainder of the current window still
// executes; workloads needing deterministic termination should quench
// their event sources instead (see internal/heartbeat's domain mode).
func (se *ShardedEngine) Halt() { se.halted.Store(true) }

// At schedules fn at absolute time t on shard 0; pre-run setup
// convenience mirroring Engine.At. Use Queue(i) to place events on a
// specific shard.
func (se *ShardedEngine) At(t Time, fn func()) EventID { return se.shards[0].At(t, fn) }

// After schedules fn d cycles from now on shard 0.
func (se *ShardedEngine) After(d Time, fn func()) EventID { return se.shards[0].After(d, fn) }

// Shard returns the shard's index.
func (s *Shard) Shard() int { return s.id }

// Now returns the shard's clock: the timestamp of its latest event.
func (s *Shard) Now() Time { return s.now }

// At schedules fn at absolute time t on this shard.
func (s *Shard) At(t Time, fn func()) EventID {
	if t < s.now {
		panic("sim: scheduling event in the past")
	}
	ev, id := s.newEvent(t, fn)
	ev.owner = &s.queue
	s.queue.push(ev)
	return id
}

// After schedules fn d cycles from now on this shard.
func (s *Shard) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// CrossAfter schedules fn d cycles from now on dst. Cross-shard sends
// are held in an outbox and delivered at the window barrier, after key
// resolution; d must be at least the engine's lookahead, which is what
// makes the window preceding the delivery safe to run concurrently.
func (s *Shard) CrossAfter(dst Queue, d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	dq, ok := dst.(*Shard)
	if !ok || dq == s {
		return s.After(d, fn)
	}
	if dq.eng != s.eng {
		panic("sim: CrossAfter across engines")
	}
	if d < s.eng.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %d below lookahead %d", d, s.eng.lookahead))
	}
	ev, id := s.newEvent(s.now+d, fn)
	if !s.eng.running {
		// Setup time is single-threaded: deliver directly.
		ev.owner = &dq.queue
		dq.queue.push(ev)
		return id
	}
	s.outbox = append(s.outbox, crossEv{dst: dq, ev: ev})
	return id
}

// newEvent allocates a stamped event at t and its handle slot.
func (s *Shard) newEvent(t Time, fn func()) (*event, EventID) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.refs))
		s.refs = append(s.refs, nil)
		s.gens = append(s.gens, 1)
	}
	ev := &event{at: t, fn: fn, ref: i*uint32(len(s.eng.shards)) + uint32(s.id)}
	s.refs[i] = ev
	s.stamp(ev)
	return ev, EventID{ev.ref, s.gens[i]}
}

// Cancel removes the event from its queue, or marks it dead in an
// outbox; its slot is recycled at the next barrier (at once before Run).
func (s *Shard) Cancel(id EventID) {
	se := s.eng
	n := uint32(len(se.shards))
	home, i := se.shards[id.slot%n], id.slot/n
	if int(i) >= len(home.refs) || home.gens[i] != id.gen {
		return
	}
	ev := home.refs[i]
	if ev.fn == nil {
		return
	}
	ev.fn = nil
	if ev.owner != nil && ev.index >= 0 {
		ev.owner.remove(int(ev.index))
		ev.owner = nil
	}
	if se.running {
		s.retired = append(s.retired, ev)
	} else {
		se.recycle(ev)
	}
}

// recycle frees ev's handle slot in its home shard, invalidating every
// handle to it.
func (se *ShardedEngine) recycle(ev *event) {
	n := uint32(len(se.shards))
	home, i := se.shards[ev.ref%n], ev.ref/n
	home.refs[i] = nil
	if home.gens[i]++; home.gens[i] == 0 {
		home.gens[i] = 1
	}
	home.free = append(home.free, i)
}

// stamp assigns the canonical key. Children of the firing event carry a
// provisional key resolved at the barrier; roots (setup-time scheduling,
// when no event is firing anywhere) take a final key immediately.
func (s *Shard) stamp(ev *event) {
	if s.cur != nil {
		ev.parent = s.cur
		ev.minor = s.childn
		s.childn++
		s.fresh = append(s.fresh, ev)
		return
	}
	if s.eng.running {
		panic("sim: root event scheduled on a running sharded engine")
	}
	ev.slot = 2 * s.eng.execn
	ev.minor = s.eng.rootn
	s.eng.rootn++
}

// runWindow executes this shard's events with At < h, in canonical
// order, stamping each with a shard-local execution rank.
func (s *Shard) runWindow(h Time) {
	for len(s.queue) > 0 && s.queue[0].at < h {
		ev := s.queue.pop()
		ev.owner = nil
		fn := ev.fn
		ev.fn = nil
		s.now = ev.at
		ev.exec = s.lxn
		s.lxn++
		s.cur, s.childn = ev, 0
		fn()
		s.cur = nil
		s.executed = append(s.executed, ev)
	}
}

// Run fires events until every shard's queue is empty or Halt is called.
func (se *ShardedEngine) Run() {
	se.runLoop(Time(1<<62 - 1))
}

// RunUntil fires events with timestamps <= deadline, then advances every
// clock to deadline.
func (se *ShardedEngine) RunUntil(deadline Time) {
	se.runLoop(deadline)
	if se.now < deadline {
		se.now = deadline
	}
	for _, s := range se.shards {
		if s.now < deadline {
			s.now = deadline
		}
	}
}

func (se *ShardedEngine) runLoop(deadline Time) {
	se.halted.Store(false)
	se.running = true
	se.startWorkers()
	for !se.halted.Load() {
		t0, ok := se.nextTime()
		if !ok || t0 > deadline {
			break
		}
		h := t0 + se.lookahead
		if h > deadline+1 || h < t0 { // h < t0 guards overflow at the open deadline
			h = deadline + 1
		}
		se.window(h)
		se.barrier()
	}
	se.stopWorkers()
	se.running = false
}

// nextTime returns the earliest queued event time across shards.
func (se *ShardedEngine) nextTime() (Time, bool) {
	var t Time
	ok := false
	for _, s := range se.shards {
		if len(s.queue) == 0 {
			continue
		}
		if !ok || s.queue[0].at < t {
			t = s.queue[0].at
			ok = true
		}
	}
	return t, ok
}

// window runs every shard's sub-horizon events, striped across the
// workers, and waits for all of them.
func (se *ShardedEngine) window(h Time) {
	if se.nworkers == 1 {
		for _, s := range se.shards {
			s.runWindow(h)
		}
		return
	}
	se.arrived.Store(0)
	se.winH = h
	se.epoch.Add(1)
	se.relMu.Lock()
	se.relCond.Broadcast()
	se.relMu.Unlock()
	// The coordinator doubles as worker 0.
	for i := 0; i < len(se.shards); i += se.nworkers {
		se.shards[i].runWindow(h)
	}
	se.arrive()
	want := int64(se.nworkers)
	if !spinUntil(func() bool { return se.arrived.Load() == want }) {
		se.arrMu.Lock()
		for se.arrived.Load() != want {
			se.arrCond.Wait()
		}
		se.arrMu.Unlock()
	}
}

func (se *ShardedEngine) arrive() {
	if se.arrived.Add(1) == int64(se.nworkers) {
		se.arrMu.Lock()
		se.arrCond.Broadcast()
		se.arrMu.Unlock()
	}
}

func (se *ShardedEngine) startWorkers() {
	if se.nworkers == 1 {
		return
	}
	se.quit.Store(false)
	se.epoch.Store(0)
	for w := 1; w < se.nworkers; w++ {
		w := w
		se.wg.Add(1)
		go func() {
			defer se.wg.Done()
			last := int64(0)
			for {
				target := last + 1
				ready := func() bool { return se.epoch.Load() >= target || se.quit.Load() }
				if !spinUntil(ready) {
					se.relMu.Lock()
					for !ready() {
						se.relCond.Wait()
					}
					se.relMu.Unlock()
				}
				if se.quit.Load() {
					return
				}
				last = target
				h := se.winH
				for i := w; i < len(se.shards); i += se.nworkers {
					se.shards[i].runWindow(h)
				}
				se.arrive()
			}
		}()
	}
}

func (se *ShardedEngine) stopWorkers() {
	if se.nworkers == 1 {
		return
	}
	se.quit.Store(true)
	se.relMu.Lock()
	se.relCond.Broadcast()
	se.relMu.Unlock()
	se.wg.Wait()
}

// spinUntil polls cond briefly, yielding periodically, and reports
// whether it became true; callers fall back to blocking on false.
func spinUntil(cond func() bool) bool {
	for i := 0; i < 1024; i++ {
		if cond() {
			return true
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	return cond()
}

// barrier is the serial phase between windows: merge the per-shard
// execution lists into the canonical global order (assigning execution
// ranks), resolve the keys of everything scheduled this window, recycle
// the handle slots of fired and cancelled events, deliver the outboxes,
// and advance the engine clock.
func (se *ShardedEngine) barrier() {
	// k-way merge by canonical order. A list head's key is always
	// resolvable: an unresolved head's parent executed earlier on the
	// same shard (children cannot precede their parents), so its global
	// rank is already assigned.
	cursors := se.cursors
	clear(cursors)
	for {
		var best *Shard
		var bestEv *event
		for _, s := range se.shards {
			i := cursors[s.id]
			if i >= len(s.executed) {
				continue
			}
			ev := s.executed[i]
			ev.resolve()
			if bestEv == nil || ev.before(bestEv) {
				best, bestEv = s, ev
			}
		}
		if bestEv == nil {
			break
		}
		bestEv.exec = se.execn
		se.execn++
		cursors[best.id]++
	}
	for _, s := range se.shards {
		// Resolve everything scheduled this window; events already
		// merged above resolved to their final keys first, so this is a
		// no-op for them. Relative order within the heaps is unchanged
		// by resolution (the provisional order equals the final order),
		// so the heap invariant is preserved.
		for i, ev := range s.fresh {
			ev.resolve()
			s.fresh[i] = nil
		}
		s.fresh = s.fresh[:0]
		for i, ev := range s.executed {
			if s.now < ev.at {
				s.now = ev.at
			}
			if se.now < ev.at {
				se.now = ev.at
			}
			se.recycle(ev)
			s.executed[i] = nil
		}
		s.executed = s.executed[:0]
		for i, ev := range s.retired {
			se.recycle(ev)
			s.retired[i] = nil
		}
		s.retired = s.retired[:0]
	}
	for _, s := range se.shards {
		for i, c := range s.outbox {
			if c.ev.fn != nil {
				c.ev.owner = &c.dst.queue
				c.dst.queue.push(c.ev)
			}
			s.outbox[i] = crossEv{}
		}
		s.outbox = s.outbox[:0]
	}
}

// event is one scheduled callback on the sharded engine.
//
// Same-time events are totally ordered by a canonical key (slot, minor)
// that is a pure function of the simulation's causal structure rather
// than of scheduling call order across the whole engine: an event
// scheduled while event p (the parent) is firing gets slot 2*exec(p)+1
// and a per-parent minor index, while an event scheduled outside any
// handler (a root) gets slot 2*F (F = events fired so far) and a global
// root index. exec(p) is p's global execution rank. Children of
// earlier-executed parents are always scheduled earlier, and a root
// scheduled after F events fired follows the children of every one of
// them, so this order is the schedule order the sequential Engine fires
// same-time events in. Unlike a global sequence it can be computed
// shard-locally and merged, which is what lets ShardedEngine replay the
// exact same total order.
type event struct {
	at Time
	fn func() // nil once the event has fired or been cancelled

	// slot/minor are the canonical tie-break key (see above). While
	// parent is non-nil the slot is provisional: it resolves to
	// 2*parent.exec+1 at the window barrier, once the parent's global
	// execution rank is known.
	slot   int64
	minor  int64
	parent *event
	// exec is the event's global execution rank. On a shard it first
	// carries the shard-local execution stamp and is rewritten to the
	// global rank at the merge barrier; the remap is monotone per shard,
	// so comparisons through it never change.
	exec int64

	owner *eventHeap // queue currently holding the event, nil otherwise
	index int32      // heap index; -1 when not queued; int32 keeps event at 64 bytes
	ref   uint32     // handle slot: local slab slot * shard count + home shard
}

// before reports whether e fires before f under the canonical order.
// Events with unresolved (provisional) keys always belong to the window
// currently executing, so their eventual slots exceed every resolved
// slot at the same timestamp; two unresolved events are on the same
// shard and compare by their parents' execution stamps.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
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
func (e *event) resolve() {
	if e.parent != nil {
		e.slot = 2*e.parent.exec + 1
		e.parent = nil
	}
}

// eventHeap is a binary min-heap of events under the canonical order,
// typed so the hot path calls (*event).before directly instead of going
// through container/heap's interface dispatch. Every queued event
// records its position in index, which is what lets Cancel remove it
// eagerly. Sifts move a hole and write each displaced event once,
// rather than swapping pairs. Keys are unique, so the pop order is a
// function of the keys alone, never of the heap's shape.
type eventHeap []*event

// push queues ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, nil)
	h.up(ev, len(*h)-1)
}

// pop removes and returns the earliest event. The heap must be
// non-empty. The root's hole first walks down the earlier-child path to
// a leaf, then the displaced last event sifts up from there (Floyd's
// bottom-up pop): the last event nearly always belongs near the leaves,
// so this takes about half the comparisons of sifting it down from the
// root.
func (h *eventHeap) pop() *event {
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
func (h eventHeap) up(ev *event, i int) {
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
func (h eventHeap) down(ev *event, i0 int) bool {
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
