package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("halt did not stop loop: count=%d", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, ts := range []Time{10, 20, 30, 40} {
		ts := ts
		e.At(ts, func() { fired = append(fired, ts) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want exactly events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after second RunUntil", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestEngineRunUntilSkipsCancelled(t *testing.T) {
	e := NewEngine()
	ev := e.At(5, func() { t.Error("cancelled event ran") })
	e.Cancel(ev)
	ran := false
	e.At(6, func() { ran = true })
	e.RunUntil(10)
	if !ran {
		t.Fatal("live event did not run")
	}
}

func TestEngineMonotoneClockProperty(t *testing.T) {
	// Property: for any set of event times, events fire in sorted order
	// and the clock never moves backwards.
	check := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, ts := range raw {
			ts := Time(ts)
			e.At(ts, func() { fired = append(fired, ts) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, ts := range raw {
			want[i] = Time(ts)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range fired {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}

func TestEngineCascade(t *testing.T) {
	// Events that schedule further events simulate a periodic timer.
	e := NewEngine()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			e.After(10, tick)
		}
	}
	e.At(0, tick)
	e.Run()
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
	if e.Now() != 990 {
		t.Fatalf("clock = %d, want 990", e.Now())
	}
}

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
