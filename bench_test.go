// Package repro's root benchmarks regenerate every table and figure of
// the paper as testing.B benchmarks, one per experiment, plus ablation
// benches for the design choices DESIGN.md calls out. Each benchmark
// reports the experiment's headline metric through b.ReportMetric, so
// `go test -bench=. -benchmem` prints the paper-vs-measured story.
package repro

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/heartbeat"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/omp"
	"repro/internal/passes"
	"repro/internal/pik"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virtine"
	"repro/internal/workloads"

	caratrt "repro/internal/carat"
)

// BenchmarkE1_NautilusPrimitives regenerates §III (E1): primitive and
// application comparison vs the commodity stack.
func BenchmarkE1_NautilusPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewStack(16)
		tab := s.Primitives()
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig3_HeartbeatRate regenerates Fig. 3 (E2): achieved vs
// target heartbeat rate at 16 CPUs.
func BenchmarkFig3_HeartbeatRate(b *testing.B) {
	for _, us := range []float64{20, 100} {
		for _, sub := range []heartbeat.Substrate{
			heartbeat.SubstrateNautilusIPI, heartbeat.SubstrateLinuxSignals,
		} {
			b.Run(sub.String()+"/"+itoa(int(us))+"us", func(b *testing.B) {
				mdl := model.Default()
				var achieved float64
				for i := 0; i < b.N; i++ {
					eng := sim.NewEngine()
					m := machine.New(eng, mdl, machine.Topology{Sockets: 1, CoresPerSocket: 16})
					cfg := heartbeat.DefaultConfig()
					cfg.Substrate = sub
					cfg.PeriodCycles = mdl.MicrosToCycles(us)
					rt := heartbeat.New(m, cfg)
					rt.Run(2_000_000, 40, 64)
					achieved = stats.Mean(rt.AchievedRates())
				}
				target := 1e6 / float64(mdl.MicrosToCycles(us))
				b.ReportMetric(achieved/target, "achieved/target")
			})
		}
	}
}

// BenchmarkE3_HeartbeatOverheads regenerates the §IV-B overhead text
// claim (13-22% Linux vs ≤4.9% Nautilus).
func BenchmarkE3_HeartbeatOverheads(b *testing.B) {
	for _, sub := range []heartbeat.Substrate{
		heartbeat.SubstrateNautilusIPI, heartbeat.SubstrateLinuxPolling,
	} {
		b.Run(sub.String(), func(b *testing.B) {
			mdl := model.Default()
			var ovh float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				m := machine.New(eng, mdl, machine.Topology{Sockets: 1, CoresPerSocket: 16})
				cfg := heartbeat.DefaultConfig()
				cfg.Substrate = sub
				rt := heartbeat.New(m, cfg)
				rt.Run(4_000_000, 40, 64)
				ovh = rt.OverheadFraction()
			}
			b.ReportMetric(ovh*100, "overhead%")
		})
	}
}

// BenchmarkFig4_ContextSwitch regenerates Fig. 4 (E4): the full context
// switch cost table on the KNL-like platform.
func BenchmarkFig4_ContextSwitch(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = core.KNLStack(1).Fig4()
	}
	_ = tab
}

// BenchmarkE5_CARAT regenerates the §IV-A overhead table (naive vs
// hoisted guards, geomean <6%).
func BenchmarkE5_CARAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.NewStack(1).CARAT()
		if len(tab.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkE5_CARATGuardAblation isolates the hoisting design choice:
// the same kernel with no guards, naive guards, and hoisted guards.
func BenchmarkE5_CARATGuardAblation(b *testing.B) {
	k := workloads.CARATSuite()[0] // stream-triad
	for _, mode := range []string{"baseline", "naive", "hoisted"} {
		b.Run(mode, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				m := k.Build()
				switch mode {
				case "naive":
					if err := passes.RunAll(m, &passes.CARATInject{}); err != nil {
						b.Fatal(err)
					}
				case "hoisted":
					if err := passes.RunAll(m, &passes.CARATInject{}, &passes.CARATHoist{}); err != nil {
						b.Fatal(err)
					}
				}
				ip, err := interp.New(m)
				if err != nil {
					b.Fatal(err)
				}
				tb := caratrt.NewTable()
				ip.Hooks.Guard = func(a mem.Addr) int64 { return tb.Guard(a, false) }
				ip.Hooks.GuardRegion = tb.GuardRegion
				ip.Hooks.TrackAlloc = tb.TrackAlloc
				ip.Hooks.TrackFree = tb.TrackFree
				ip.Hooks.TrackEsc = tb.TrackEscape
				if _, err := ip.Call(k.Entry); err != nil {
					b.Fatal(err)
				}
				cycles = ip.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkFig6_KernelOpenMP regenerates Fig. 6 (E6): RTK/PIK/CCK
// relative to Linux for BT and SP across CPU counts.
func BenchmarkFig6_KernelOpenMP(b *testing.B) {
	b.ReportAllocs()
	cfg := core.Fig6Config{
		CPUCounts: []int{8, 32, 64},
		Kernels:   core.DefaultFig6Config().Kernels,
		Steps:     3,
	}
	for i := 0; i < b.N; i++ {
		tab := core.KNLStack(1).Fig6(cfg)
		if len(tab.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig6_ModeAblation times a single BT run per OpenMP mode.
func BenchmarkFig6_ModeAblation(b *testing.B) {
	k := workloads.BT()
	k.Steps = 3
	for _, mode := range []omp.Mode{omp.ModeLinux, omp.ModeRTK, omp.ModePIK, omp.ModeCCK} {
		b.Run(mode.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = omp.New(32, model.KNL(), mode, 42).RunKernel(k)
			}
			b.ReportMetric(float64(cycles)/1e6, "sim-Mcycles")
		})
	}
}

// BenchmarkFig7_CoherenceDeactivation regenerates Fig. 7 (E7): per-
// benchmark speedup and interconnect energy with deactivation.
func BenchmarkFig7_CoherenceDeactivation(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = core.ServerStack().Fig7()
	}
	_ = tab
}

// BenchmarkFig7_ClassAblation isolates each sharing class (DESIGN.md
// ablation: private vs read-only vs producer-consumer deactivation).
func BenchmarkFig7_ClassAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.ServerStack().AblationSharingClasses()
		if len(tab.Rows) != 4 {
			b.Fatal("bad ablation table")
		}
	}
}

// BenchmarkE11_CoherenceScaleSweep regenerates the §V-B scale claim.
func BenchmarkE11_CoherenceScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.ServerStack().Fig7Sweep()
		if len(tab.Rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig7Suite runs what `interweave all` runs for fig7 on one
// stack: the table, the small-axis sweep, then the ablation. Unlike the
// per-driver benchmarks it sees the runs they share.
func BenchmarkFig7Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.ServerStack()
		s.Parallel = 1
		s.Fig7()
		s.Fig7SweepCores([]int{8, 16, 24, 48})
		if tab := s.AblationSharingClasses(); len(tab.Rows) != 4 {
			b.Fatal("bad ablation table")
		}
	}
}

// BenchmarkE8_VirtineStartPaths regenerates §IV-D (E8): cold vs snapshot
// vs pooled virtine invocation.
func BenchmarkE8_VirtineStartPaths(b *testing.B) {
	mdl := model.Default()
	for _, path := range []virtine.StartPath{
		virtine.StartCold, virtine.StartSnapshot, virtine.StartPooled,
	} {
		b.Run(path.String(), func(b *testing.B) {
			w := virtine.NewWasp(mdl)
			sp := fibSpec()
			// Prime non-cold paths.
			if path != virtine.StartCold {
				if _, _, err := w.Invoke(sp, path, 10); err != nil {
					b.Fatal(err)
				}
			}
			var startup int64
			for i := 0; i < b.N; i++ {
				_, lat, err := w.Invoke(sp, path, 10)
				if err != nil {
					b.Fatal(err)
				}
				startup = lat.StartupCycles
				if path == virtine.StartPooled {
					w.WarmPool(sp, 1)
				}
			}
			b.ReportMetric(mdl.CyclesToMicros(startup), "startup-µs")
		})
	}
}

// BenchmarkE9_PipelineInterrupts regenerates §V-D (E9): IDT vs pipeline
// delivery latency.
func BenchmarkE9_PipelineInterrupts(b *testing.B) {
	var speedup float64
	cfg := pipeline.DefaultConfig()
	cfg.Samples = 2000
	for i := 0; i < b.N; i++ {
		r := pipeline.Compare(model.Default(), cfg)
		speedup = r.SpeedupMean
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkE10_Blending regenerates §V-C (E10): the blended device
// driver comparison.
func BenchmarkE10_Blending(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.NewStack(1).Blending()
		if len(tab.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkAblation_HeartbeatSubstrates compares all three heartbeat
// signaling mechanisms head-to-head (DESIGN.md ablation).
func BenchmarkAblation_HeartbeatSubstrates(b *testing.B) {
	for _, sub := range []heartbeat.Substrate{
		heartbeat.SubstrateNautilusIPI,
		heartbeat.SubstrateLinuxSignals,
		heartbeat.SubstrateLinuxPolling,
	} {
		b.Run(sub.String(), func(b *testing.B) {
			mdl := model.Default()
			var done float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				m := machine.New(eng, mdl, machine.Topology{Sockets: 1, CoresPerSocket: 16})
				cfg := heartbeat.DefaultConfig()
				cfg.Substrate = sub
				rt := heartbeat.New(m, cfg)
				rt.Run(2_000_000, 40, 64)
				done = float64(rt.DoneAt())
			}
			b.ReportMetric(done/1e6, "sim-Mcycles")
		})
	}
}

// BenchmarkAblation_TimingInjection sweeps the compiler-timing check
// interval against achieved preemption granularity (DESIGN.md ablation).
func BenchmarkAblation_TimingInjection(b *testing.B) {
	for _, target := range []int64{200, 1000, 5000} {
		b.Run("target-"+itoa(int(target)), func(b *testing.B) {
			var maxGap int64
			for i := 0; i < b.N; i++ {
				k := workloads.CARATSuite()[0]
				m := k.Build()
				if err := passes.RunAll(m, &passes.TimingInject{TargetCycles: target}); err != nil {
					b.Fatal(err)
				}
				ip, err := interp.New(m)
				if err != nil {
					b.Fatal(err)
				}
				var last int64
				maxGap = 0
				ip.Hooks.YieldCheck = func(elapsed int64) int64 {
					if g := elapsed - last; g > maxGap {
						maxGap = g
					}
					last = elapsed
					return 6
				}
				if _, err := ip.Call(k.Entry); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(maxGap), "max-gap-cycles")
		})
	}
}

// fibSpec builds the Fig. 5 fib virtine for benches.
func fibSpec() *virtine.Spec {
	return &virtine.Spec{Mod: fibModule(), Entry: "fib", Boot: virtine.Boot64}
}

// fibModule builds the paper's Fig. 5 example for the virtine benches.
func fibModule() *ir.Module {
	m := ir.NewModule("fib")
	f := m.NewFunction("fib", 1)
	b := ir.NewBuilder(f)
	n := b.Param(0)
	two := b.Const(2)
	base := b.Block("base")
	rec := b.Block("rec")
	b.Br(b.ICmp(ir.PredLT, n, two), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	one := b.Const(1)
	x := b.Call("fib", b.Sub(n, one))
	y := b.Call("fib", b.Sub(n, two))
	b.Ret(b.Add(x, y))
	return m
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkExt_FarMemory regenerates the §V-C far-memory extension:
// page swapping vs object blending.
func BenchmarkExt_FarMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.NewStack(1).FarMemory()
		if len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkExt_Consistency regenerates the §V-B selective-fencing
// extension.
func BenchmarkExt_Consistency(b *testing.B) {
	var full, sel int64
	for i := 0; i < b.N; i++ {
		full, sel = coherence.FenceComparison(1000, 8, 24)
	}
	b.ReportMetric(float64(full)/float64(sel), "stall-ratio")
}

// BenchmarkExt_CrossISA regenerates the §V-F open-hardware exploration.
func BenchmarkExt_CrossISA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.NewStack(16).CrossISA()
		if len(tab.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkExt_PIKLifecycle regenerates the enhanced-CARAT PIK pipeline:
// build, attest, verify, load, run.
func BenchmarkExt_PIKLifecycle(b *testing.B) {
	key := []byte("bench-key")
	for i := 0; i < b.N; i++ {
		m := ir.NewModule("bench")
		f := m.NewFunction("main", 0)
		bb := ir.NewBuilder(f)
		arr := bb.Alloc(1024)
		bb.CountingLoop(0, 128, 1, func(iv ir.Reg) {
			bb.Store(bb.Add(arr, bb.Mul(iv, bb.Const(8))), 0, iv)
		})
		bb.Free(arr)
		bb.Ret(ir.NoReg)
		img, err := pik.BuildImage(m, key)
		if err != nil {
			b.Fatal(err)
		}
		k, err := pik.NewKernel(key)
		if err != nil {
			b.Fatal(err)
		}
		p, err := k.Load("bench", img)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Call("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExt_Paging regenerates the translation-regime comparison.
func BenchmarkExt_Paging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.NewStack(1).Paging()
		if len(tab.Rows) != 8 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkExt_Schedules regenerates the loop-schedule comparison.
func BenchmarkExt_Schedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := core.NewStack(1).Schedules(16)
		if len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkParallelRunner measures the deterministic experiment-cell
// pool end-to-end on the CARAT multi-benchmark loop: one cell per
// kernel, sequential (-parallel 1) vs GOMAXPROCS-wide (-parallel 0).
// Output tables are bit-identical in both modes; only wall-clock moves.
func BenchmarkParallelRunner(b *testing.B) {
	for _, cfg := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"gomaxprocs", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewStack(1)
				s.Parallel = cfg.par
				if tab := s.CARAT(); len(tab.Rows) == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
}

// BenchmarkExpPoolOverhead isolates the pool's own cost: dispatching
// trivial cells through the bounded worker pool.
func BenchmarkExpPoolOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := exp.Map(exp.New(workers), 256,
					func(i int) (uint64, error) { return uint64(i), nil })
				if err != nil || len(out) != 256 {
					b.Fatal(err)
				}
			}
		})
	}
}
