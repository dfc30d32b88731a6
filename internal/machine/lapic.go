package machine

import "repro/internal/sim"

// LAPIC is the per-CPU local APIC timer. The paper's heartbeat mechanism
// (§IV-B, Fig. 2) arms the LAPIC timer on CPU 0 and broadcasts the
// resulting interrupt to all workers by IPI; the compiler-timing work
// (§IV-C) exists precisely to avoid paying this timer's interrupt
// dispatch cost.
type LAPIC struct {
	cpu *CPU

	armed    bool
	periodic bool
	period   int64
	vector   Vector
	ev       sim.EventID
	fireFn   func() // fire, bound once, on first use: the timer re-arms every period

	// Fired counts timer expirations delivered.
	Fired int64
}

// OneShot arms the timer to fire vector v once after delay cycles.
// Programming the timer costs Model.HW.TimerProgram cycles, accounted to
// the dispatch bucket (it is kernel-path work, not application work).
func (l *LAPIC) OneShot(delay int64, v Vector) {
	l.program(delay, v, false)
}

// Periodic arms the timer to fire vector v every period cycles.
func (l *LAPIC) Periodic(period int64, v Vector) {
	if period <= 0 {
		panic("machine: non-positive timer period")
	}
	l.program(period, v, true)
}

func (l *LAPIC) program(delay int64, v Vector, periodic bool) {
	l.Stop()
	l.cpu.Stats.DispatchCycles += l.cpu.m.Model.HW.TimerProgram
	l.armed = true
	l.periodic = periodic
	l.period = delay
	l.vector = v
	l.schedule(delay)
}

func (l *LAPIC) schedule(delay int64) {
	if f := l.cpu.m.TimerFault; f != nil {
		delay += f(l.cpu.ID, l.vector, delay)
	}
	if l.fireFn == nil {
		l.fireFn = l.fire
	}
	l.ev = l.cpu.m.Eng.After(sim.Time(delay), l.fireFn)
}

func (l *LAPIC) fire() {
	if !l.armed {
		return
	}
	l.Fired++
	if l.periodic {
		// Re-arm before delivery so handler-time does not skew the
		// period: hardware periodic timers count down independently of
		// software.
		l.schedule(l.period)
	} else {
		l.armed = false
		l.ev = sim.EventID{}
	}
	l.cpu.Raise(l.vector)
}

// Stop disarms the timer.
func (l *LAPIC) Stop() {
	l.cpu.m.Eng.Cancel(l.ev)
	l.ev = sim.EventID{}
	l.armed = false
}

// Armed reports whether the timer is armed.
func (l *LAPIC) Armed() bool { return l.armed }
