package chaos_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/interp"
	"repro/internal/mem"
)

// TestZeroConfigInjectsNothing: Config{} must be a no-fault plan — every
// injector kind stays silent over many consults.
func TestZeroConfigInjectsNothing(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(7, chaos.Config{})
	alloc := p.AllocInjector("a", mem.ErrOutOfMemory)
	ipi := p.IPIInjector("i")
	tmr := p.TimerInjector("t")
	wake := p.WakeInjector("w")
	for k := 0; k < 1000; k++ {
		if err := alloc(64); err != nil {
			t.Fatalf("alloc consult %d injected: %v", k, err)
		}
		if drop, delay := ipi(0, 1, 2); drop || delay != 0 {
			t.Fatalf("ipi consult %d injected drop=%v delay=%d", k, drop, delay)
		}
		if d := tmr(0, 2, 100); d != 0 {
			t.Fatalf("timer consult %d injected %d", k, d)
		}
		if d := wake(); d != 0 {
			t.Fatalf("wake consult %d injected %d", k, d)
		}
	}
	if p.Faults() != 0 || len(p.Trace()) != 0 {
		t.Fatalf("no-fault plan recorded %d faults", p.Faults())
	}
}

// TestSiteStreamsIndependent: a site's decision stream is a pure
// function of (seed, site name, per-site consult sequence). Driving
// *other* sites — or creating them in a different order — must not
// change what a site does.
func TestSiteStreamsIndependent(t *testing.T) {
	t.Parallel()
	cfg := chaos.Config{AllocFailProb: 0.3}
	drive := func(p *chaos.Plan, site string, n int) []bool {
		inj := p.AllocInjector(site, mem.ErrOutOfMemory)
		out := make([]bool, n)
		for i := range out {
			out[i] = inj(uint64(i)) != nil
		}
		return out
	}

	// Plan A: site "x" alone. Plan B: sites "noise1", "x", "noise2"
	// interleaved, with "x" consulted the same number of times.
	pa := chaos.NewPlan(99, cfg)
	want := drive(pa, "x", 200)

	pb := chaos.NewPlan(99, cfg)
	drive(pb, "noise1", 137)
	got := drive(pb, "x", 200)
	drive(pb, "noise2", 53)

	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("site x consult %d: alone=%v with-noise=%v", i, want[i], got[i])
		}
	}

	// And the per-site trace is identical too.
	ta, tb := pa.Trace(), pb.Trace()
	var xb []chaos.Fault
	for _, f := range tb {
		if f.Site == "x" {
			xb = append(xb, f)
		}
	}
	if len(ta) != len(xb) {
		t.Fatalf("trace length: alone=%d with-noise=%d", len(ta), len(xb))
	}
	for i := range ta {
		if ta[i] != xb[i] {
			t.Fatalf("trace[%d]: alone=%v with-noise=%v", i, ta[i], xb[i])
		}
	}
}

// TestSameSeedSameSchedule: two plans with the same seed produce
// byte-identical traces for the same consult sequence; a different seed
// produces a different one.
func TestSameSeedSameSchedule(t *testing.T) {
	t.Parallel()
	cfg := chaos.DefaultConfig()
	run := func(seed uint64) string {
		p := chaos.NewPlan(seed, cfg)
		alloc := p.AllocInjector("mem/alloc", mem.ErrOutOfMemory)
		ipi := p.IPIInjector("machine/ipi")
		tmr := p.TimerInjector("machine/timer")
		for i := 0; i < 500; i++ {
			_ = alloc(uint64(i % 512))
			_, _ = ipi(0, i%4, 1)
			_ = tmr(i%4, 2, 1000)
		}
		return p.TraceString()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged:\n--- run1\n%s--- run2\n%s", a, b)
	}
	if a == run(43) {
		t.Fatal("different seeds produced identical schedules")
	}
	if a == "" {
		t.Fatal("default config injected nothing over 1500 consults")
	}
}

// TestAllocBudgetExhaustion: after AllocBudget consults a site fails
// every allocation (hard exhaustion), regardless of probability.
func TestAllocBudgetExhaustion(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(1, chaos.Config{AllocBudget: 5})
	inj := p.AllocInjector("heap", mem.ErrOutOfMemory)
	for i := 0; i < 5; i++ {
		if err := inj(64); err != nil {
			t.Fatalf("consult %d failed inside budget: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		err := inj(64)
		if err == nil {
			t.Fatalf("consult %d succeeded past exhaustion budget", 5+i)
		}
		fe, ok := chaos.AsFault(err)
		if !ok || fe.Fault.Kind != chaos.AllocFail {
			t.Fatalf("exhaustion error not an alloc FaultError: %v", err)
		}
	}
}

// TestFaultErrorWrapsDomainSentinel: the typed chaos error must keep
// errors.Is working against the domain sentinel it wraps, and AsFault
// must find it through further wrapping.
func TestFaultErrorWrapsDomainSentinel(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(3, chaos.Config{AllocFailProb: 1})
	err := p.AllocInjector("z", mem.ErrOutOfMemory)(128)
	if err == nil {
		t.Fatal("probability-1 injector did not fire")
	}
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("errors.Is(err, mem.ErrOutOfMemory) = false for %v", err)
	}
	wrapped := fmt.Errorf("cell 3: %w", fmt.Errorf("alloc: %w", err))
	fe, ok := chaos.AsFault(wrapped)
	if !ok {
		t.Fatalf("AsFault failed through wrapping: %v", wrapped)
	}
	if fe.Fault.Site != "z" || fe.Fault.Kind != chaos.AllocFail || fe.Fault.Arg != 128 {
		t.Fatalf("fault metadata wrong: %+v", fe.Fault)
	}
	if _, ok := chaos.AsFault(mem.ErrOutOfMemory); ok {
		t.Fatal("AsFault matched a plain domain error")
	}
}

// TestStepFault: the interpreter hook records a StepBudget fault and
// wraps interp.ErrStepLimit.
func TestStepFault(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(5, chaos.Config{MaxSteps: 1000})
	if got := p.StepBudget(77); got != 1000 {
		t.Fatalf("StepBudget = %d, want configured 1000", got)
	}
	if got := chaos.NewPlan(5, chaos.Config{}).StepBudget(77); got != 77 {
		t.Fatalf("StepBudget = %d, want default 77", got)
	}
	err := p.StepFault("interp/steps", interp.ErrStepLimit)()
	if !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("step fault does not wrap ErrStepLimit: %v", err)
	}
	fe, _ := chaos.AsFault(err)
	if fe == nil || fe.Fault.Kind != chaos.StepBudget || fe.Fault.Arg != 1000 {
		t.Fatalf("step fault metadata wrong: %v", err)
	}
}

// TestTraceCanonicalOrder: Trace merges per-site histories sorted by
// (site, seq), independent of consult interleaving.
func TestTraceCanonicalOrder(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(8, chaos.Config{AllocFailProb: 1})
	b := p.AllocInjector("b", mem.ErrOutOfMemory)
	a := p.AllocInjector("a", mem.ErrOutOfMemory)
	_ = b(1)
	_ = a(2)
	_ = b(3)
	tr := p.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length = %d", len(tr))
	}
	want := []chaos.Fault{
		{Site: "a", Seq: 0, Kind: chaos.AllocFail, Arg: 2},
		{Site: "b", Seq: 0, Kind: chaos.AllocFail, Arg: 1},
		{Site: "b", Seq: 1, Kind: chaos.AllocFail, Arg: 3},
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, tr[i], want[i])
		}
	}
}

// TestInvariantViolationsRecorded: a failing checker is recorded against
// the in-flight fault; CheckNow records against a synthetic checkpoint.
func TestInvariantViolationsRecorded(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(9, chaos.Config{AllocFailProb: 1})
	broken := errors.New("free list corrupted")
	healthy := 0
	p.OnInvariant("always-bad", func() error { return broken })
	p.OnInvariant("always-good", func() error { healthy++; return nil })

	_ = p.AllocInjector("s", mem.ErrOutOfMemory)(64)
	p.CheckNow("final")

	v := p.Violations()
	if len(v) != 2 {
		t.Fatalf("violations = %d, want 2 (one per firing): %v", len(v), v)
	}
	if v[0].Invariant != "always-bad" || !errors.Is(v[0].Err, broken) {
		t.Fatalf("violation[0] = %v", v[0])
	}
	if v[0].Fault.Site != "s" {
		t.Fatalf("violation[0] fault = %v, want site s", v[0].Fault)
	}
	if v[1].Fault.Site != "checkpoint/final" {
		t.Fatalf("violation[1] fault = %v, want checkpoint", v[1].Fault)
	}
	if healthy != 2 {
		t.Fatalf("healthy checker ran %d times, want 2", healthy)
	}
}

// TestInvariantReentrancyBounded: a checker whose own inspection path
// fires a fault (e.g. it probes an allocator that has an injector
// installed) must not recurse into the checkers again.
func TestInvariantReentrancyBounded(t *testing.T) {
	t.Parallel()
	p := chaos.NewPlan(11, chaos.Config{AllocFailProb: 1})
	inner := p.AllocInjector("inner", mem.ErrOutOfMemory)
	calls := 0
	p.OnInvariant("probing", func() error {
		calls++
		_ = inner(32) // fires a fault from inside the checker
		return nil
	})
	_ = p.AllocInjector("outer", mem.ErrOutOfMemory)(64)
	if calls != 1 {
		t.Fatalf("checker ran %d times, want exactly 1 (no recursion)", calls)
	}
	// Both faults are still in the trace.
	if p.Faults() != 2 {
		t.Fatalf("faults = %d, want 2", p.Faults())
	}
}

// TestCPUAllocSubsites: per-CPU injectors use independent sub-site
// streams — cpu 0's traffic does not perturb cpu 1's schedule.
func TestCPUAllocSubsites(t *testing.T) {
	t.Parallel()
	cfg := chaos.Config{AllocFailProb: 0.4}
	seq := func(p *chaos.Plan, cpu, n int, noise bool) []bool {
		inj := p.CPUAllocInjector("cache", mem.ErrOutOfMemory)
		out := make([]bool, n)
		for i := range out {
			if noise {
				_ = inj(0, 8) // interleaved traffic on cpu 0
			}
			out[i] = inj(cpu, uint64(i)) != nil
		}
		return out
	}
	quiet := seq(chaos.NewPlan(21, cfg), 1, 300, false)
	noisy := seq(chaos.NewPlan(21, cfg), 1, 300, true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("cpu1 consult %d perturbed by cpu0 traffic", i)
		}
	}
}

// TestConfigValidate: probabilities must lie in [0, 1] and bounds must
// be non-negative; errors name the field by its JSON name, and every
// probability is checked before any bound.
func TestConfigValidate(t *testing.T) {
	for _, c := range []chaos.Config{{}, chaos.DefaultConfig(), {AllocFailProb: 1, AllocBudget: 9, MaxSteps: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	for _, tc := range []struct {
		cfg  chaos.Config
		want string
	}{
		{chaos.Config{IPIDropProb: 1.5}, "chaos ipi_drop_prob 1.5 outside [0, 1]"},
		{chaos.Config{AllocFailProb: -0.1}, "chaos alloc_fail_prob -0.1 outside [0, 1]"},
		{chaos.Config{TimerJitterMax: -3}, "chaos timer_jitter_max -3 negative"},
		{chaos.Config{MaxSteps: -1, WakeDelayProb: 2}, "chaos wake_delay_prob 2 outside [0, 1]"},
	} {
		err := tc.cfg.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: got %v, want %q", tc.cfg, err, tc.want)
		}
	}
}
