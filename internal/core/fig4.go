package core

import (
	"repro/internal/linux"
	"repro/internal/nautilus"
)

// fig4Bar is one bar of Figure 4's parameter space.
type fig4Bar struct {
	label  string
	timing nautilus.TimingMode
	class  nautilus.Class
	opts   nautilus.ThreadOpts
}

// Fig4 regenerates Figure 4: context-switch cost across
// {RT, non-RT} x {Threads, Fibers} x {Cooperative, Compiler-timed} x
// {FP, no FP} on the KNL-like platform, with the Linux thread switch as
// the reference. Costs are *measured* by running a ping-pong workload on
// the simulated kernel, not just read from the model.
func (s *Stack) Fig4() *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Context switch cost on Phi-KNL-like platform (cycles)",
		Header: []string{"configuration", "cycles/switch", "vs linux FP"},
	}
	lx := linux.New(s.Model, s.Seed)
	linuxFP := lx.ContextSwitchCost(true)
	linuxNoFP := lx.ContextSwitchCost(false)
	t.AddRow("linux thread (non-RT, FP)", i64(linuxFP), "1.00x")
	t.AddRow("linux thread (non-RT, no FP)", i64(linuxNoFP), f2(float64(linuxFP)/float64(linuxNoFP))+"x")

	bars := []fig4Bar{
		{"threads (non-RT, FP)", nautilus.TimingHWTimer, nautilus.ClassThread, nautilus.ThreadOpts{FP: true}},
		{"threads (non-RT, no FP)", nautilus.TimingHWTimer, nautilus.ClassThread, nautilus.ThreadOpts{}},
		{"threads (RT, FP)", nautilus.TimingHWTimer, nautilus.ClassThread, nautilus.ThreadOpts{RT: true, FP: true}},
		{"fibers-coop (no FP)", nautilus.TimingCooperative, nautilus.ClassFiber, nautilus.ThreadOpts{}},
		{"fibers-coop (FP)", nautilus.TimingCooperative, nautilus.ClassFiber, nautilus.ThreadOpts{FP: true}},
		{"fibers-comptime (no FP)", nautilus.TimingCompiler, nautilus.ClassFiber, nautilus.ThreadOpts{}},
		{"fibers-comptime (FP)", nautilus.TimingCompiler, nautilus.ClassFiber, nautilus.ThreadOpts{FP: true}},
	}
	for _, bar := range bars {
		c := s.measureSwitch(bar)
		t.AddRow("nautilus "+bar.label, i64(c), f2(float64(linuxFP)/float64(c))+"x")
	}
	t.AddNote("paper: Linux ≈5000; Nautilus threads ≈ half; compiler-timed fibers slightly more than halved again (4x lower no-FP, 2.3x lower FP); granularity limit < 600 cycles")
	return t
}

// measureSwitch runs a two-thread ping-pong on one CPU and extracts the
// per-switch cost: (elapsed - pure compute) / switches.
func (s *Stack) measureSwitch(bar fig4Bar) int64 {
	st := s.WithCPUs(1)
	eng, m := st.Build()
	cfg := nautilus.Config{
		Timing: bar.timing,
		// Quantum chosen so compiler-timed switching fires every check.
		QuantumCycles:       1000,
		CheckIntervalCycles: 1000,
	}
	k := nautilus.New(m, cfg)
	defer k.Shutdown()

	const iters = 200
	const compute = 1000
	body := func(tc *nautilus.ThreadCtx) {
		for i := 0; i < iters; i++ {
			tc.Compute(compute)
			if bar.timing != nautilus.TimingCompiler {
				tc.Yield()
			}
		}
	}
	k.Spawn(0, bar.class, bar.opts, body)
	k.Spawn(0, bar.class, bar.opts, body)
	start := eng.Now()
	eng.Run()
	elapsed := eng.Now().Sub(start)
	pure := int64(2 * iters * compute)
	over := elapsed - pure
	switches := k.Switches
	if bar.timing == nautilus.TimingCompiler {
		// Subtract the distributed check cost: it is preemption-
		// granularity overhead, not switch cost.
		over -= k.CheckCycleSum
	}
	if switches == 0 {
		return 0
	}
	return over / switches
}

// GranularityLimit returns the minimum preemption granularity (cycles)
// each configuration supports at the given overhead budget — the basis
// of the paper's "<600 cycles" claim for compiler-timed fibers.
func (s *Stack) GranularityLimit(budget float64) *Table {
	t := &Table{
		ID:     "fig4-granularity",
		Title:  "Preemption granularity floor at 50% overhead budget",
		Header: []string{"configuration", "switch cycles", "granularity floor"},
	}
	if budget <= 0 {
		budget = 0.5
	}
	bars := []fig4Bar{
		{"linux thread (FP)", nautilus.TimingHWTimer, nautilus.ClassThread, nautilus.ThreadOpts{FP: true}},
		{"nautilus threads (non-RT, FP)", nautilus.TimingHWTimer, nautilus.ClassThread, nautilus.ThreadOpts{FP: true}},
		{"nautilus fibers-comptime (no FP)", nautilus.TimingCompiler, nautilus.ClassFiber, nautilus.ThreadOpts{}},
	}
	for i, bar := range bars {
		var c int64
		if i == 0 {
			c = linux.New(s.Model, s.Seed).ContextSwitchCost(true)
		} else {
			c = s.measureSwitch(bar)
		}
		floor := int64(float64(c) / budget)
		t.AddRow(bar.label, i64(c), i64(floor))
	}
	t.AddNote("a switch cost of C supports preemption every C/budget cycles; compiler-timed fibers reach sub-600-cycle switch costs without FP state")
	return t
}
