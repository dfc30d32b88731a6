package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestCancelReleasesEagerly is the retention regression for the Cancel
// bugfix: a cancelled event must leave the queue (and drop its Fn
// closure) immediately, not at its fire time — a long-horizon timer that
// is cancelled and re-armed every period would otherwise accumulate one
// closure per period until the horizon.
func TestCancelReleasesEagerly(t *testing.T) {
	e := NewEngine()
	const n = 1000
	evs := make([]EventID, n)
	for i := range evs {
		big := make([]byte, 1<<10)
		evs[i] = e.At(1_000_000_000, func() { _ = big })
	}
	if e.Pending() != n {
		t.Fatalf("pending = %d, want %d", e.Pending(), n)
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancelling all events, want 0 (cancelled events still counted)", e.Pending())
	}
	for _, ev := range evs {
		if e.slab[ev.slot].fn != nil {
			t.Fatal("cancelled event still pins its Fn closure")
		}
	}
	// Double-cancel and cancel-after-fire stay no-ops.
	ev := e.At(1_000_000_001, func() {})
	e.Cancel(ev)
	e.Cancel(ev)
	e.Run()
	if got := e.Now(); got != 0 {
		t.Fatalf("clock moved to %d with every event cancelled", got)
	}
}

const fuzzLookahead = Time(600)

// fuzzHarness drives an identical pseudo-random event workload over nCPU
// simulated CPUs on any Sim, respecting the shard-safety contract: each
// CPU's handler touches only that CPU's state and reaches other CPUs
// only via CrossAfter with delay >= lookahead. It returns the canonical
// per-CPU trace of every handler execution.
type fuzzHarness struct {
	eng    Sim
	queues []Queue
	rngs   []*RNG
	steps  []int
	hold   []EventID // last locally scheduled event, cancellation target
	trace  []strings.Builder
	limit  int
}

func newFuzzHarness(eng Sim, nCPU int, seed uint64, limit int) *fuzzHarness {
	h := &fuzzHarness{eng: eng, limit: limit}
	h.queues = make([]Queue, nCPU)
	h.rngs = make([]*RNG, nCPU)
	h.steps = make([]int, nCPU)
	h.hold = make([]EventID, nCPU)
	h.trace = make([]strings.Builder, nCPU)
	root := NewRNG(seed)
	for i := 0; i < nCPU; i++ {
		h.queues[i] = eng.Queue(i * eng.Shards() / nCPU)
		h.rngs[i] = root.SplitLabel(fmt.Sprintf("cpu%d", i))
	}
	for i := 0; i < nCPU; i++ {
		i := i
		h.queues[i].At(Time(10+i), func() { h.tick(i, 0) })
	}
	return h
}

func (h *fuzzHarness) tick(cpu, gen int) {
	q := h.queues[cpu]
	r := h.rngs[cpu]
	fmt.Fprintf(&h.trace[cpu], "c%d g%d @%d\n", cpu, gen, q.Now())
	h.steps[cpu]++
	if h.steps[cpu] >= h.limit {
		return
	}
	switch r.Intn(6) {
	case 0, 1:
		// Plain local chain.
		h.hold[cpu] = q.After(Time(r.Intn(900)), func() { h.tick(cpu, gen+1) })
	case 2:
		// Two children at the same instant: exercises same-tick sibling
		// ordering by minor index.
		d := Time(r.Intn(500))
		q.After(d, func() { h.tick(cpu, gen+1) })
		h.hold[cpu] = q.After(d, func() { h.tick(cpu, gen+2) })
	case 3:
		// Cross-CPU send at the latency floor plus jitter; lands on
		// another shard when the engine is sharded.
		dst := r.Intn(len(h.queues))
		d := fuzzLookahead + Time(r.Intn(700))
		q.CrossAfter(h.queues[dst], d, func() { h.tick(dst, gen+1) })
		h.hold[cpu] = q.After(Time(r.Intn(300)), func() { h.tick(cpu, gen+1) })
	case 4:
		// Cancel the previously held event (may already have fired — a
		// no-op then) and reschedule a replacement.
		if ev := h.hold[cpu]; ev != (EventID{}) {
			q.Cancel(ev)
			fmt.Fprintf(&h.trace[cpu], "c%d cancel\n", cpu)
		}
		h.hold[cpu] = q.After(Time(r.Intn(400)), func() { h.tick(cpu, gen+1) })
	case 5:
		// Cancel-after-migrate: send a cross-shard event, then cancel it
		// from the source shard before the window barrier delivers it.
		dst := r.Intn(len(h.queues))
		ev := q.CrossAfter(h.queues[dst], fuzzLookahead+Time(r.Intn(200)), func() {
			h.tick(dst, gen+1)
		})
		if r.Intn(2) == 0 {
			q.Cancel(ev)
			fmt.Fprintf(&h.trace[cpu], "c%d cancel-migrated\n", cpu)
		}
		h.hold[cpu] = q.After(Time(r.Intn(400)), func() { h.tick(cpu, gen+1) })
	}
}

func (h *fuzzHarness) result() string {
	var sb strings.Builder
	for i := range h.trace {
		sb.WriteString(h.trace[i].String())
	}
	fmt.Fprintf(&sb, "fired=%d\n", h.eng.Fired())
	return sb.String()
}

// TestShardedMatchesSequential is the engine-level equivalence oracle:
// the same workload on the sequential Engine and on ShardedEngine at
// several shard and worker counts must produce byte-identical traces.
func TestShardedMatchesSequential(t *testing.T) {
	const nCPU = 16
	const limit = 400
	for _, seed := range []uint64{1, 7, 42, 12345} {
		seq := newFuzzHarness(NewEngine(), nCPU, seed, limit)
		seq.eng.Run()
		want := seq.result()
		for _, shards := range []int{1, 2, 4, 16} {
			for _, workers := range []int{1, 4} {
				se := NewSharded(shards, fuzzLookahead)
				se.SetWorkers(workers)
				h := newFuzzHarness(se, nCPU, seed, limit)
				se.Run()
				if got := h.result(); got != want {
					t.Fatalf("seed %d shards=%d workers=%d: trace diverges from sequential\nsharded:\n%.400s\nsequential:\n%.400s",
						seed, shards, workers, got, want)
				}
			}
		}
	}
}

// TestShardedSameTickCrossShardTies pins the deterministic resolution of
// simultaneous cross-shard arrivals: two sources on different shards
// deliver to one destination at the same instant, and the firing order
// must match the sequential engine's canonical order on every run.
func TestShardedSameTickCrossShardTies(t *testing.T) {
	build := func(eng Sim) (*[]string, []Queue) {
		order := &[]string{}
		n := 3
		qs := make([]Queue, n)
		for i := range qs {
			qs[i] = eng.Queue(i * eng.Shards() / n)
		}
		// Sources on shards 0 and 1 arrange arrivals on shard 2 at the
		// identical timestamp 10 + 700.
		qs[0].At(10, func() {
			qs[0].CrossAfter(qs[2], 700, func() { *order = append(*order, "from0") })
		})
		qs[1].At(10, func() {
			qs[1].CrossAfter(qs[2], 700, func() { *order = append(*order, "from1") })
		})
		return order, qs
	}
	seqEng := NewEngine()
	seqOrder, _ := build(seqEng)
	seqEng.Run()
	if len(*seqOrder) != 2 {
		t.Fatalf("sequential fired %d events, want 2", len(*seqOrder))
	}
	for run := 0; run < 20; run++ {
		se := NewSharded(3, 600)
		order, _ := build(se)
		se.Run()
		if fmt.Sprint(*order) != fmt.Sprint(*seqOrder) {
			t.Fatalf("run %d: same-tick cross-shard tie order %v, sequential order %v",
				run, *order, *seqOrder)
		}
	}
}

// TestShardedCancelInsideHandler covers cancellation from within a
// firing handler at a shard boundary tick: a handler cancels a pending
// same-tick event (must not fire) and a just-fired one (no-op), on both
// engines identically.
func TestShardedCancelInsideHandler(t *testing.T) {
	for _, mk := range []func() Sim{
		func() Sim { return NewEngine() },
		func() Sim { se := NewSharded(2, 600); se.SetWorkers(1); return se },
	} {
		eng := mk()
		q := eng.Queue(0)
		var fired []string
		var first, second EventID
		first = q.At(100, func() {
			fired = append(fired, "first")
			q.Cancel(second) // pending same-tick sibling: must not fire
			q.Cancel(first)  // self, already firing: no-op
		})
		second = q.At(100, func() { fired = append(fired, "second") })
		q.At(200, func() { fired = append(fired, "tail") })
		eng.Run()
		got := strings.Join(fired, ",")
		if got != "first,tail" {
			t.Fatalf("%T: fired %q, want %q", eng, got, "first,tail")
		}
	}
}

// TestShardedLookaheadEnforced verifies that a cross-shard send below
// the lookahead panics instead of silently breaking window safety.
func TestShardedLookaheadEnforced(t *testing.T) {
	se := NewSharded(2, 600)
	se.SetWorkers(1)
	q0, q1 := se.Queue(0), se.Queue(1)
	q0.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-shard send below lookahead did not panic")
			}
		}()
		q0.CrossAfter(q1, 100, func() {})
	})
	se.Run()
}

// TestShardedRunUntil checks the deadline semantics match the
// sequential engine: events at the deadline fire, later ones stay, and
// every clock advances to the deadline.
func TestShardedRunUntil(t *testing.T) {
	se := NewSharded(2, 600)
	se.SetWorkers(1)
	var fired []Time
	for _, ts := range []Time{10, 20, 25, 30, 40} {
		ts := ts
		se.Queue(int(ts)%2).At(ts, func() { fired = append(fired, ts) })
	}
	se.RunUntil(25)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 10, 20, 25", fired)
	}
	if se.Now() != 25 || se.Queue(0).Now() != 25 || se.Queue(1).Now() != 25 {
		t.Fatalf("clocks = %d/%d/%d, want 25", se.Now(), se.Queue(0).Now(), se.Queue(1).Now())
	}
	se.RunUntil(100)
	if len(fired) != 5 {
		t.Fatalf("fired %v after second RunUntil", fired)
	}
	if se.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", se.Pending())
	}
}

// TestShardedHalt: Halt stops at the next barrier and Pending reports
// the leftovers.
func TestShardedHalt(t *testing.T) {
	se := NewSharded(1, 600)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count == 3 {
			se.Halt()
		}
		se.Queue(0).After(1000, chain) // beyond the lookahead: next window
	}
	se.Queue(0).At(0, chain)
	se.Run()
	if count != 3 {
		t.Fatalf("halt did not stop the loop: count=%d", count)
	}
	if se.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", se.Pending())
	}
}
