package core

import (
	"repro/internal/heartbeat"
	"repro/internal/linux"
	"repro/internal/nautilus"
	"repro/internal/omp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Primitives regenerates the §III background claims (E1): Nautilus's
// streamlined kernel primitives versus the commodity stack — thread
// creation, event signaling (mean and tail), and context switching —
// plus an application-level speedup measured on the heartbeat workload.
func (s *Stack) Primitives() *Table {
	t := &Table{
		ID:     "nautilus",
		Title:  "Nautilus primitives vs commodity stack",
		Header: []string{"primitive", "linux (cyc)", "nautilus (cyc)", "ratio"},
	}
	lx := linux.New(s.Model, s.Seed)
	nk := s.Model.Nautilus
	hw := s.Model.HW

	// Thread creation: clone+sched setup vs streamlined create.
	lxCreate := lx.SyscallCost() + s.Model.Linux.SchedulerPick + s.Model.Linux.ContextSwitchExtra
	t.AddRow("thread create", i64(lxCreate), i64(nk.ThreadCreate),
		f1(float64(lxCreate)/float64(nk.ThreadCreate))+"x")

	// Event signal (mean): signal path vs kernel event + IPI.
	lxSignal := lx.SignalPathCost()
	nkSignal := nk.EventWakeup + hw.IPILatency
	t.AddRow("event signal (mean)", i64(lxSignal), i64(nkSignal),
		f1(float64(lxSignal)/float64(nkSignal))+"x")

	// Event signal (p99 under load): the tail is where "orders of
	// magnitude" shows up [36]. Sample delivery including jitter and
	// noise.
	lxTail := s.linuxSignalTailP99(lx)
	t.AddRow("event signal (p99 loaded)", i64(lxTail), i64(nkSignal),
		f1(float64(lxTail)/float64(nkSignal))+"x")

	// Context switch.
	lxSwitch := lx.ContextSwitchCost(true)
	nkSwitch := s.measureSwitch(fig4Bar{
		timing: nautilus.TimingHWTimer, class: nautilus.ClassThread,
		opts: nautilus.ThreadOpts{FP: true},
	})
	t.AddRow("context switch (FP)", i64(lxSwitch), i64(nkSwitch),
		f1(float64(lxSwitch)/float64(nkSwitch))+"x")

	// Application benchmarks: the heartbeat workload end-to-end (lower
	// bound) and an OpenMP NAS-shaped app at scale (the §III-style
	// 20-40% case).
	lxApp := s.appCompletion(heartbeat.SubstrateLinuxPolling)
	nkApp := s.appCompletion(heartbeat.SubstrateNautilusIPI)
	t.AddRow("heartbeat app (Mcyc)", f1(float64(lxApp)/1e6), f1(float64(nkApp)/1e6),
		pct(float64(lxApp)/float64(nkApp)-1)+" speedup")
	bt := workloads.BT()
	bt.Steps = 4
	lxOMP := s.ompRun(omp.ModeLinux, 64, bt)
	nkOMP := s.ompRun(omp.ModeRTK, 64, bt)
	t.AddRow("OpenMP app, 64 CPUs (Mcyc)", f1(float64(lxOMP)/1e6), f1(float64(nkOMP)/1e6),
		pct(float64(lxOMP)/float64(nkOMP)-1)+" speedup")
	t.AddNote("paper (§III): application speedups of 20-40%% over user-level Linux; primitives such as thread management and event signaling are orders of magnitude faster (tail latencies)")
	return t
}

// linuxSignalTailP99 samples loaded signal-delivery latencies.
func (s *Stack) linuxSignalTailP99(lx *linux.Stack) int64 {
	xs := make([]float64, 5000)
	base := float64(lx.SignalPathCost())
	for i := range xs {
		v := base + float64(lx.SampleTimerJitter())
		if lx.NoiseHits(int64(base * 4)) {
			v += float64(lx.SampleNoise())
		}
		xs[i] = v
	}
	return int64(stats.Percentile(xs, 99))
}

// appCompletion runs the heartbeat workload on a substrate and returns
// its completion time.
func (s *Stack) appCompletion(sub heartbeat.Substrate) sim.Time {
	st := s.WithCPUs(16)
	_, m := st.Build()
	cfg := heartbeat.DefaultConfig()
	cfg.Substrate = sub
	cfg.PeriodCycles = s.Model.MicrosToCycles(100)
	cfg.Seed = s.Seed
	rt := heartbeat.New(m, cfg)
	rt.Run(2_000_000, 40, 64)
	return rt.DoneAt()
}
