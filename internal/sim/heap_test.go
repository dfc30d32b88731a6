package sim

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"
)

// This file checks Engine against a sorted-slice oracle: an engine that
// keeps its pending events in one slice sorted by (time, schedule
// sequence) and fires the head. Running the same seeded scheduling
// programs on both checks that the radix heap keeps that order rather
// than assuming it.

// refEvent is one event of the oracle engine.
type refEvent struct {
	at     Time
	seq    int64
	exec   int64
	fn     func()
	eng    *refEngine
	queued bool
}

func (a *refEvent) less(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Cancel removes a queued event; on a fired or cancelled one it is a
// no-op, as on Engine.
func (a *refEvent) Cancel() {
	if !a.queued {
		return
	}
	q := a.eng.q
	for i, ev := range q {
		if ev == a {
			a.eng.q = append(q[:i], q[i+1:]...)
			break
		}
	}
	a.queued = false
}

// refEngine is the sorted-slice oracle.
type refEngine struct {
	now    Time
	q      []*refEvent
	fired  int64
	seq    int64
	cur    *refEvent
	halted bool
}

func (r *refEngine) at(t Time, fn func()) *refEvent {
	if t < r.now {
		panic("oracle: scheduling in the past")
	}
	ev := &refEvent{at: t, seq: r.seq, fn: fn, eng: r, queued: true}
	r.seq++
	i := sort.Search(len(r.q), func(i int) bool { return ev.less(r.q[i]) })
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
	return ev
}

func (r *refEngine) step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	ev.queued = false
	r.now = ev.at
	ev.exec = r.fired
	r.fired++
	r.cur = ev
	ev.fn()
	r.cur = nil
	return true
}

func (r *refEngine) run() {
	r.halted = false
	for !r.halted && r.step() {
	}
}

func (r *refEngine) runUntil(d Time) {
	r.halted = false
	for !r.halted && len(r.q) > 0 && r.q[0].at <= d {
		r.step()
	}
	if r.now < d {
		r.now = d
	}
}

// diffEngine is what a scheduling program drives: Engine or the oracle.
type diffEngine interface {
	now() Time
	// at schedules fn at absolute time t; only between runs.
	at(t Time, fn func()) canceler
	// after schedules fn d cycles after the firing event.
	after(d Time, fn func()) canceler
	run()
	runUntil(Time)
	halt()
	fired() uint64
	pending() int
	// current returns the execution rank of the firing event.
	current() int64
}

type canceler interface{ Cancel() }

// crossDelay is the least delay of a send to another logical CPU.
const crossDelay = Time(10)

// engineDiff adapts Engine.
type engineDiff struct{ e *Engine }

// handle cancels an event through its engine.
type handle struct {
	e  *Engine
	id EventID
}

func (h handle) Cancel() { h.e.Cancel(h.id) }

func (d engineDiff) now() Time                         { return d.e.Now() }
func (d engineDiff) at(t Time, fn func()) canceler     { return handle{d.e, d.e.At(t, fn)} }
func (d engineDiff) after(dt Time, fn func()) canceler { return handle{d.e, d.e.After(dt, fn)} }
func (d engineDiff) run()                              { d.e.Run() }
func (d engineDiff) runUntil(t Time)                   { d.e.RunUntil(t) }
func (d engineDiff) halt()                             { d.e.Halt() }
func (d engineDiff) fired() uint64                     { return d.e.Fired() }
func (d engineDiff) pending() int                      { return d.e.Pending() }
func (d engineDiff) current() int64                    { return int64(d.e.Fired()) - 1 }

// refDiff adapts the oracle.
type refDiff struct{ r *refEngine }

func (d refDiff) now() Time                         { return d.r.now }
func (d refDiff) at(t Time, fn func()) canceler     { return d.r.at(t, fn) }
func (d refDiff) after(dt Time, fn func()) canceler { return d.r.at(d.r.cur.at+dt, fn) }
func (d refDiff) run()                              { d.r.run() }
func (d refDiff) runUntil(t Time)                   { d.r.runUntil(t) }
func (d refDiff) halt()                             { d.r.halted = true }
func (d refDiff) fired() uint64                     { return uint64(d.r.fired) }
func (d refDiff) pending() int                      { return len(d.r.q) }
func (d refDiff) current() int64                    { return d.r.cur.exec }

// mix64 is the splitmix64 finalizer: event IDs and per-event decision
// streams derive from it, so every engine makes the same decisions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// diffProgram is one seeded scheduling program over ncpu logical CPUs.
// A handler touches only its own CPU's state, and cancels only events
// its CPU scheduled onto itself.
type diffProgram struct {
	eng   diffEngine
	seed  uint64
	halts bool
	logs  [][]firing   // per CPU, in that CPU's fire order
	local [][]canceler // per CPU, handles the CPU scheduled onto itself
	roots []canceler   // handles of root events, owned by run
	trace []string     // engine state after each phase of run
}

type firing struct {
	id   uint64
	exec int64 // diffEngine.current at fire time
}

func newDiffProgram(eng diffEngine, ncpu int, seed uint64, halts bool) *diffProgram {
	return &diffProgram{eng: eng, seed: seed, halts: halts,
		logs: make([][]firing, ncpu), local: make([][]canceler, ncpu)}
}

// fire is the handler of event id on cpu, generation gen. Its decisions
// are a pure function of (seed, id) and of its CPU's own history.
func (p *diffProgram) fire(cpu int, id uint64, gen int) {
	p.logs[cpu] = append(p.logs[cpu], firing{id, p.eng.current()})
	r := mix64(p.seed ^ id)
	next := func(n uint64) uint64 {
		r = mix64(r)
		return r % n
	}
	if gen < 6 {
		ncpu := uint64(len(p.logs))
		for k, n := uint64(0), next(4); k < n; k++ {
			dst, d := cpu, Time(next(40))
			if next(10) < 3 {
				dst = int(next(ncpu))
				d = crossDelay + Time(next(40))
			}
			cid := mix64(id*31 + k + 1)
			h := p.eng.after(d, func() { p.fire(dst, cid, gen+1) })
			if dst == cpu {
				p.local[cpu] = append(p.local[cpu], h)
			}
		}
	}
	// Cancel one of this CPU's own handles: pending (cancel in a
	// handler), already fired (a no-op), or the firing event itself.
	if l := p.local[cpu]; len(l) > 0 && next(10) < 3 {
		l[next(uint64(len(l)))].Cancel()
	}
	if p.halts && next(40) == 0 {
		p.eng.halt()
	}
}

// run executes the program: phases of root scheduling, root
// cancellation, and RunUntil/Run, then a final drain.
func (p *diffProgram) run() {
	r := p.seed
	next := func(n uint64) uint64 {
		r = mix64(r)
		return r % n
	}
	var rootID uint64
	for phase := 0; phase < 10; phase++ {
		for k, n := uint64(0), 1+next(5); k < n; k++ {
			cpu := int(next(uint64(len(p.logs))))
			id := mix64(p.seed<<20 | rootID)
			rootID++
			h := p.eng.at(p.eng.now()+Time(next(100)), func() { p.fire(cpu, id, 0) })
			p.roots = append(p.roots, h)
		}
		if len(p.roots) > 0 && next(3) == 0 {
			p.roots[next(uint64(len(p.roots)))].Cancel()
		}
		if next(4) == 0 {
			p.eng.run()
		} else {
			p.eng.runUntil(p.eng.now() + Time(next(150)))
		}
		p.trace = append(p.trace, fmt.Sprintf("phase %d: now=%d fired=%d pending=%d",
			phase, p.eng.now(), p.eng.fired(), p.eng.pending()))
	}
	for i := 0; p.eng.pending() > 0; i++ {
		if i > 1000 {
			panic("diff program did not drain")
		}
		p.eng.run()
	}
	p.trace = append(p.trace, fmt.Sprintf("drained: now=%d fired=%d", p.eng.now(), p.eng.fired()))
}

// order returns the global fire order of event IDs, reassembled from
// the per-CPU logs by execution rank.
func (p *diffProgram) order(t *testing.T) []uint64 {
	type ranked struct {
		exec int64
		id   uint64
	}
	var all []ranked
	for _, l := range p.logs {
		for _, f := range l {
			all = append(all, ranked{f.exec, f.id})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].exec < all[j].exec })
	ids := make([]uint64, len(all))
	for i, a := range all {
		if a.exec != int64(i) {
			t.Fatalf("execution ranks not dense: position %d has rank %d", i, a.exec)
		}
		ids[i] = a.id
	}
	return ids
}

func diffRun(t *testing.T, eng diffEngine, seed uint64, halts bool) (*diffProgram, []uint64) {
	p := newDiffProgram(eng, 8, seed, halts)
	p.run()
	return p, p.order(t)
}

func sameOrder(t *testing.T, name string, seed uint64, got, want *diffProgram, gotIDs, wantIDs []uint64) {
	t.Helper()
	if fmt.Sprint(got.trace) != fmt.Sprint(want.trace) {
		t.Fatalf("seed %d %s: phase states differ\n got  %v\n want %v", seed, name, got.trace, want.trace)
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("seed %d %s: fired %d events, oracle %d", seed, name, len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("seed %d %s: fire order diverges at event %d", seed, name, i)
		}
	}
}

// TestHeapMatchesSortedOracle drives seeded programs of root and child
// scheduling, Cancel (in handlers, after fire, of the firing event, of
// roots between runs), RunUntil and Halt through Engine and through the
// oracle: fire order, clock, fired and pending counts must agree.
func TestHeapMatchesSortedOracle(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	total := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, halts := range []bool{true, false} {
			ref, refIDs := diffRun(t, refDiff{&refEngine{}}, seed, halts)
			got, gotIDs := diffRun(t, engineDiff{NewEngine()}, seed, halts)
			sameOrder(t, fmt.Sprintf("halts=%v", halts), seed, got, ref, gotIDs, refIDs)
			total += len(refIDs)
		}
	}
	if total < 1000 {
		t.Fatalf("programs fired only %d events in all; too small to test the heap", total)
	}
}

// TestHeapRemoveKeepsOrder cancels the event at every schedule position
// of queues of 1 to 40 events, spread over few enough times that many
// tie, and checks the survivors fire in (time, schedule order) and the
// cancelled one never does.
func TestHeapRemoveKeepsOrder(t *testing.T) {
	type key struct {
		at  Time
		seq int
	}
	for n := 1; n <= 40; n++ {
		for cut := 0; cut < n; cut++ {
			e := NewEngine()
			var fired []key
			ids := make([]EventID, n)
			for i := 0; i < n; i++ {
				k := key{Time(mix64(uint64(n*100+i)) % 17), i}
				ids[i] = e.At(k.at, func() { fired = append(fired, k) })
			}
			e.Cancel(ids[cut])
			if e.Pending() != n-1 {
				t.Fatalf("n=%d cut=%d: pending %d after cancel, want %d", n, cut, e.Pending(), n-1)
			}
			e.Run()
			if len(fired) != n-1 {
				t.Fatalf("n=%d cut=%d: %d events fired, want %d", n, cut, len(fired), n-1)
			}
			for i, k := range fired {
				if k.seq == cut {
					t.Fatalf("n=%d cut=%d: cancelled event fired", n, cut)
				}
				if i > 0 && (k.at < fired[i-1].at || k.at == fired[i-1].at && k.seq < fired[i-1].seq) {
					t.Fatalf("n=%d cut=%d: fire order %v not (time, schedule order)", n, cut, fired)
				}
			}
		}
	}
}

// TestEngineScheduleAtClockAfterRunUntil stops RunUntil short of the
// next event and schedules at the clock. Looking for the next event
// must not advance the queue past the clock, even when the lowest
// pending entry is a tombstone.
func TestEngineScheduleAtClockAfterRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(100, rec)
	e.Cancel(e.At(30, rec))
	e.RunUntil(50)
	if e.Now() != 50 || len(fired) != 0 {
		t.Fatalf("RunUntil(50): clock %d, fired %v", e.Now(), fired)
	}
	e.At(50, rec)
	e.At(60, rec)
	e.RunUntil(50)
	e.Run()
	if fmt.Sprint(fired) != "[50 60 100]" {
		t.Fatalf("fired at %v, want [50 60 100]", fired)
	}
}

// TestEngineStaleHandleCancel cancels through handles whose slots have
// been reused, once after the event fired and once after a cancelled
// event's tombstone was collected: both must leave the new occupant
// alone.
func TestEngineStaleHandleCancel(t *testing.T) {
	e := NewEngine()
	old := e.At(10, func() {})
	e.Run()
	ran := 0
	reused := e.At(20, func() { ran++ })
	if reused.slot != old.slot {
		t.Fatalf("slot %d not reused (new event in slot %d)", old.slot, reused.slot)
	}
	e.Cancel(old)
	e.Run()
	if ran != 1 {
		t.Fatal("cancel through a fired event's handle cancelled its slot's next event")
	}

	dead := e.At(30, func() { t.Error("cancelled event ran") })
	e.Cancel(dead)
	e.Run() // collects the tombstone
	again := e.At(40, func() { ran++ })
	if again.slot != dead.slot {
		t.Fatalf("slot %d not reused (new event in slot %d)", dead.slot, again.slot)
	}
	e.Cancel(dead)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 {
		t.Fatal("cancel through a collected tombstone's handle cancelled its slot's next event")
	}
	e.Cancel(EventID{}) // the zero handle names no event
}

// newStepEngine returns an engine at a steady queue depth: each handler
// schedules one successor at a pseudo-random delay, so Step keeps the
// depth constant.
func newStepEngine(depth int) *Engine {
	e := NewEngine()
	x := uint64(depth)
	var fn func()
	fn = func() {
		x = mix64(x)
		e.After(Time(x%4096), fn)
	}
	for i := 0; i < depth; i++ {
		x = mix64(x)
		e.At(Time(x%4096), fn)
	}
	for i := 0; i < depth; i++ { // reach steady state
		e.Step()
	}
	return e
}

// BenchmarkEngineStep measures one fire-and-reschedule at a steady queue
// depth. Slots are recycled, so an op allocates nothing
// (TestEngineStepAllocFree).
func BenchmarkEngineStep(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := newStepEngine(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			if e.Pending() != depth {
				b.Fatalf("depth drifted to %d", e.Pending())
			}
		})
	}
}

// TestEngineStepAllocFree pins BenchmarkEngineStep's 0 allocs/op.
func TestEngineStepAllocFree(t *testing.T) {
	e := newStepEngine(1 << 10)
	if n := testing.AllocsPerRun(10_000, func() { e.Step() }); n != 0 {
		t.Fatalf("Step allocates %.2f objects per fire-and-reschedule, want 0", n)
	}
}

// TestEventSize pins the engine's per-event footprint: a queue entry
// and a slab slot are 16 bytes each.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(qent{}); n > 16 {
		t.Fatalf("queue entry is %d bytes, want <= 16", n)
	}
	if n := unsafe.Sizeof(slabEvent{}); n > 16 {
		t.Fatalf("slab slot is %d bytes, want <= 16", n)
	}
}
