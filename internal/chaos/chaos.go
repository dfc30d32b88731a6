// Package chaos is the deterministic fault-injection and
// schedule-exploration harness for the simulated stack (the
// FoundationDB-style deterministic-simulation-testing idea applied to
// this repository): a Plan derived from a single seed injects faults at
// named sites — allocation failure in the mem layer, IPI loss/delay and
// timer jitter at the machine layer, event-wake delays in Nautilus,
// step-budget exhaustion in the interpreter — while registered
// cross-layer invariant checkers run at every injection firing.
//
// Determinism is the whole point: every site draws from its own RNG
// stream, derived from the plan seed and the site name alone
// (sim.RNG.SplitLabel), so the fault schedule is a pure function of
// (seed, per-site call sequence) — independent of site registration
// order and of which other sites exist. Running the same workload twice
// under the same seed yields byte-identical results and an identical
// fault trace; that property is what the metamorphic suite asserts.
//
// Layering: the substrate packages (mem, machine, nautilus, heartbeat,
// interp) know nothing about this package — they expose plain func
// hooks and invariant-check methods. chaos supplies injector closures
// for those hooks, and the composition happens in internal/core, in the
// cmd binaries, and in tests.
package chaos

import (
	"errors"
	"fmt"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// AllocFail fails an allocation (mem.Buddy.Inject / mem.CPUCache.Inject).
	AllocFail Kind = iota
	// IPIDrop suppresses an inter-processor interrupt entirely.
	IPIDrop
	// IPIDelay defers an IPI's delivery by Arg cycles.
	IPIDelay
	// TimerJitter stretches a LAPIC timer's next expiry by Arg cycles.
	TimerJitter
	// WakeDelay defers an idle-CPU dispatch after an event wake by Arg
	// cycles (never drops it — a dropped wake would be a lost wakeup,
	// which is exactly the bug class the invariant checker hunts).
	WakeDelay
	// StepBudget is interpreter step-budget exhaustion (ErrStepLimit
	// under a chaos-chosen MaxSteps).
	StepBudget
)

// String names the kind for traces.
func (k Kind) String() string {
	switch k {
	case AllocFail:
		return "alloc-fail"
	case IPIDrop:
		return "ipi-drop"
	case IPIDelay:
		return "ipi-delay"
	case TimerJitter:
		return "timer-jitter"
	case WakeDelay:
		return "wake-delay"
	case StepBudget:
		return "step-budget"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one injected fault occurrence: the site that fired, its
// per-site sequence number, the kind, and a kind-specific argument
// (bytes requested, delay cycles, steps executed).
type Fault struct {
	Site string
	Seq  int
	Kind Kind
	Arg  int64
}

// String renders the fault for traces and errors.
func (f Fault) String() string {
	return fmt.Sprintf("%s#%d %s(%d)", f.Site, f.Seq, f.Kind, f.Arg)
}

// FaultError is the typed error surfaced when an injected fault makes
// an operation fail. It wraps the underlying domain error (e.g.
// mem.ErrOutOfMemory, interp.ErrStepLimit), so errors.Is against the
// domain sentinel still matches, and errors.As against *FaultError
// identifies the failure as injected rather than organic.
type FaultError struct {
	Fault Fault
	Err   error
}

// Error renders the injected failure.
func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected %s: %v", e.Fault, e.Err)
}

// Unwrap exposes the wrapped domain error.
func (e *FaultError) Unwrap() error { return e.Err }

// AsFault reports whether err is or wraps a *FaultError, returning it.
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// Violation records an invariant check that failed during a fault
// firing: which fault was in flight, which named invariant broke, and
// the checker's error.
type Violation struct {
	Fault     Fault
	Invariant string
	Err       error
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("invariant %q violated at %s: %v", v.Invariant, v.Fault, v.Err)
}

// Config sets per-kind fault rates and bounds. Zero values disable the
// corresponding fault kind, so Config{} is a no-fault plan. The JSON
// tags are the experiment service's wire form of a chaos plan.
type Config struct {
	// AllocFailProb is the per-allocation probability of transient
	// failure at each alloc site.
	AllocFailProb float64 `json:"alloc_fail_prob,omitempty"`
	// AllocBudget, when non-zero, models hard exhaustion: after this
	// many allocation consults at a site, every later allocation there
	// fails. This is the stressor for the paper's no-fault memory-model
	// claim (§III): layers above must degrade, not corrupt.
	AllocBudget uint64 `json:"alloc_budget,omitempty"`
	// IPIDropProb / IPIDelayProb / IPIDelayMax perturb IPI delivery.
	IPIDropProb  float64 `json:"ipi_drop_prob,omitempty"`
	IPIDelayProb float64 `json:"ipi_delay_prob,omitempty"`
	IPIDelayMax  int64   `json:"ipi_delay_max,omitempty"`
	// TimerJitterProb / TimerJitterMax stretch LAPIC timer expiries.
	TimerJitterProb float64 `json:"timer_jitter_prob,omitempty"`
	TimerJitterMax  int64   `json:"timer_jitter_max,omitempty"`
	// WakeDelayProb / WakeDelayMax defer idle-CPU event-wake dispatches.
	WakeDelayProb float64 `json:"wake_delay_prob,omitempty"`
	WakeDelayMax  int64   `json:"wake_delay_max,omitempty"`
	// MaxSteps, when non-zero, is the interpreter step budget a plan
	// imposes (see Plan.StepBudget).
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// Validate checks c's ranges: every probability in [0, 1], every
// bound non-negative. Errors name the field by its JSON name.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"alloc_fail_prob", c.AllocFailProb},
		{"ipi_drop_prob", c.IPIDropProb},
		{"ipi_delay_prob", c.IPIDelayProb},
		{"timer_jitter_prob", c.TimerJitterProb},
		{"wake_delay_prob", c.WakeDelayProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos %s %v outside [0, 1]", p.name, p.v)
		}
	}
	for _, d := range []struct {
		name string
		v    int64
	}{
		{"ipi_delay_max", c.IPIDelayMax},
		{"timer_jitter_max", c.TimerJitterMax},
		{"wake_delay_max", c.WakeDelayMax},
		{"max_steps", c.MaxSteps},
	} {
		if d.v < 0 {
			return fmt.Errorf("chaos %s %d negative", d.name, d.v)
		}
	}
	return nil
}

// DefaultConfig returns moderate fault rates: frequent enough that a
// hundred-seed metamorphic sweep exercises every kind, rare enough that
// workloads usually complete.
func DefaultConfig() Config {
	return Config{
		AllocFailProb:   0.02,
		IPIDropProb:     0.05,
		IPIDelayProb:    0.10,
		IPIDelayMax:     20_000,
		TimerJitterProb: 0.25,
		TimerJitterMax:  30_000,
		WakeDelayProb:   0.10,
		WakeDelayMax:    5_000,
	}
}
