package nautilus

import (
	"fmt"

	"repro/internal/sim"
)

// Event is the Nautilus fast event/wait-queue primitive ("primitives
// such as thread management and event signaling are orders of magnitude
// faster", §III). Two flavors:
//
//   - condition events (NewEvent): Wait always blocks until a later
//     Signal/Broadcast;
//   - latches (NewLatch): once set, all current and future waiters pass
//     immediately (used for thread joins).
type Event struct {
	k       *Kernel
	waiters []*Thread
	latch   bool
	set     bool
	// waking is non-zero while a wake sweep is dequeuing waiters — a
	// latch broadcast sets the latch first and then readies waiters one
	// by one, so mid-sweep the "set but waiters parked" state is
	// transient and legal. CheckNoLostWakeup only judges boundaries.
	waking int

	Signals int64
	Wakeups int64
}

// NewEvent creates a condition-style event.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// NewLatch creates a latched event.
func NewLatch(k *Kernel) *Event { return &Event{k: k, latch: true} }

func (e *Event) addWaiter(t *Thread) {
	e.waiters = append(e.waiters, t)
}

// wake readies up to n waiters (n < 0 wakes all) and returns the cycle
// cost of the wake path. For latches it also sets the latch.
func (e *Event) wake(n int) int64 {
	e.Signals++
	e.waking++
	defer func() { e.waking-- }()
	if e.latch {
		e.set = true
	}
	var cost int64
	woken := 0
	for len(e.waiters) > 0 && (n < 0 || woken < n) {
		t := e.waiters[0]
		e.waiters = e.waiters[1:]
		woken++
		e.Wakeups++
		cost += e.k.Model.Nautilus.EventWakeup
		cs := e.k.cpus[t.CPU]
		t.state = stateReady
		cs.enqueue(t)
		// Remote CPU may be idle: let it pick the thread up. The chaos
		// hook may defer (never drop) the dispatch.
		if cs.idle {
			c := cs
			var delay int64
			if e.k.WakeDelay != nil {
				delay = e.k.WakeDelay()
			}
			e.k.M.Eng.After(sim.Time(delay), func() { c.maybeDispatch() })
		}
	}
	return cost
}

// CheckNoLostWakeup verifies the event's liveness invariant: once a
// latch is set, no waiter may remain parked on it — every thread that
// enqueued before the Set saw its wake, and later Waits pass through
// without parking. The chaos harness runs this at every injection
// firing; a violation means a wake was dropped somewhere between
// signal and dispatch.
func (e *Event) CheckNoLostWakeup() error {
	if e.waking == 0 && e.latch && e.set && len(e.waiters) > 0 {
		return fmt.Errorf("nautilus: latch set but %d waiter(s) still parked", len(e.waiters))
	}
	return nil
}
