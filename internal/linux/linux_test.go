package linux

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newStack(m model.Model) (*sim.Engine, *Stack) {
	return sim.NewEngine(), New(m, 99)
}

func TestContextSwitchCalibration(t *testing.T) {
	// Fig. 4 caption: "Linux non-real-time thread context switches with
	// FP state take about 5000 cycles on this platform [KNL]".
	_, s := newStack(model.KNL())
	fp := s.ContextSwitchCost(true)
	if fp < 4800 || fp > 5200 {
		t.Fatalf("Linux FP switch = %d cycles, want ≈5000", fp)
	}
	noFP := s.ContextSwitchCost(false)
	if noFP >= fp {
		t.Fatal("no-FP switch must be cheaper")
	}
	if fp-noFP != s.Model.HW.FPStateSave+s.Model.HW.FPStateRestore {
		t.Fatal("FP delta mismatch")
	}
}

func TestSyscallAndSignalPathCosts(t *testing.T) {
	_, s := newStack(model.Default())
	if s.SyscallCost() != s.Model.Linux.SyscallEntry+s.Model.Linux.SyscallExit {
		t.Fatal("syscall cost composition wrong")
	}
	want := s.Model.HW.InterruptDispatch + s.Model.Linux.SignalDeliver +
		s.Model.Linux.SignalReturn + s.Model.HW.InterruptReturn
	if s.SignalPathCost() != want {
		t.Fatal("signal path composition wrong")
	}
	// The paper's premise: signal delivery is far more expensive than a
	// bare interrupt.
	if s.SignalPathCost() < 2*s.Model.HW.InterruptDispatch {
		t.Fatal("signal path implausibly cheap")
	}
}

func TestEffectivePeriodFloor(t *testing.T) {
	_, s := newStack(model.Default())
	floor := s.Model.Linux.MinTimerGranularity
	if s.EffectivePeriod(floor/2) != floor {
		t.Fatal("sub-floor period not clamped")
	}
	if s.EffectivePeriod(floor*3) != floor*3 {
		t.Fatal("above-floor period altered")
	}
}

func TestJitterNonNegativeAndVaries(t *testing.T) {
	_, s := newStack(model.Default())
	seen := make(map[int64]bool)
	for i := 0; i < 200; i++ {
		j := s.SampleTimerJitter()
		if j < 0 {
			t.Fatalf("negative jitter %d", j)
		}
		seen[j] = true
	}
	if len(seen) < 20 {
		t.Fatal("jitter implausibly discrete")
	}
}

func TestNoiseHeavyTail(t *testing.T) {
	_, s := newStack(model.Default())
	big := 0
	for i := 0; i < 5000; i++ {
		if s.SampleNoise() > 100_000 {
			big++
		}
	}
	if big == 0 {
		t.Fatal("noise has no tail")
	}
	if big > 2500 {
		t.Fatal("noise is all tail; not heavy-tailed")
	}
}

func TestNoiseHitsProbability(t *testing.T) {
	_, s := newStack(model.Default())
	every := s.Model.Linux.NoiseEveryC
	hits := 0
	n := 10_000
	for i := 0; i < n; i++ {
		if s.NoiseHits(every / 10) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("hit fraction %.3f, want ≈0.10", frac)
	}
	if !s.NoiseHits(every * 2) {
		t.Fatal("interval longer than the mean gap must always hit")
	}
}

func TestPacerDeliversAtAchievablePeriod(t *testing.T) {
	eng, s := newStack(model.Default())
	p := &HeartbeatPacer{
		S:            s,
		Eng:          eng,
		Workers:      []int{1, 2, 3, 4, 5, 6, 7},
		PeriodCycles: 200_000, // well above the floor
		HandlerCost:  500,
	}
	p.Start()
	eng.RunUntil(10_000_000)
	p.Stop()
	for i := range p.Workers {
		got := p.Stats.DeliveredPerCPU[i]
		// ~50 rounds expected; allow jitter and noise losses.
		if got < 30 {
			t.Fatalf("worker %d received %d beats, want ≈50", i, got)
		}
	}
}

func TestPacerCollapsesBelowFloor(t *testing.T) {
	eng, s := newStack(model.Default())
	var workers []int
	for i := 1; i < 16; i++ {
		workers = append(workers, i)
	}
	p := &HeartbeatPacer{
		S:            s,
		Eng:          eng,
		Workers:      workers,
		PeriodCycles: 20_000, // 20 µs: below the 45 µs kernel floor
		HandlerCost:  500,
	}
	p.Start()
	const horizon = 20_000_000
	eng.RunUntil(horizon)
	p.Stop()
	wantIdeal := float64(horizon) / 20_000
	got := float64(p.Stats.DeliveredPerCPU[0])
	if got > wantIdeal*0.7 {
		t.Fatalf("delivered %.0f of ideal %.0f; sub-floor rate should collapse", got, wantIdeal)
	}
}

func TestPacerJitterVisible(t *testing.T) {
	eng, s := newStack(model.Default())
	p := &HeartbeatPacer{
		S:            s,
		Eng:          eng,
		Workers:      []int{1, 2, 3},
		PeriodCycles: 150_000,
		HandlerCost:  500,
	}
	p.Start()
	eng.RunUntil(30_000_000)
	p.Stop()
	times := p.Stats.DeliveryTimes[0]
	if len(times) < 10 {
		t.Fatalf("too few deliveries: %d", len(times))
	}
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, float64(times[i].Sub(times[i-1])))
	}
	if cv := stats.CoefVar(gaps); cv < 0.01 {
		t.Fatalf("delivery CV = %.4f; Linux timer jitter must be visible", cv)
	}
}

func TestPacerDeterministic(t *testing.T) {
	run := func() int64 {
		eng, s := newStack(model.Default())
		p := &HeartbeatPacer{S: s, Eng: eng, Workers: []int{1, 2, 3}, PeriodCycles: 100_000, HandlerCost: 100}
		p.Start()
		eng.RunUntil(5_000_000)
		return p.Stats.SignalsSent
	}
	if run() != run() {
		t.Fatal("pacer nondeterministic")
	}
}
