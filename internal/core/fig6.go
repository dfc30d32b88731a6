package core

import (
	"fmt"

	"repro/internal/omp"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig6Config parameterizes the kernel-OpenMP experiment.
type Fig6Config struct {
	CPUCounts []int
	Kernels   []workloads.NASKernel
	// Steps overrides kernel steps (0 = keep) so the CLI can trade
	// precision for speed.
	Steps int
}

// DefaultFig6Config matches the paper's Fig. 6: NAS BT and SP across CPU
// scales on KNL.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		CPUCounts: []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		Kernels:   []workloads.NASKernel{workloads.BT(), workloads.SP()},
		Steps:     6,
	}
}

// Fig6 regenerates Figure 6: RTK (and PIK, CCK) performance relative to
// Linux OpenMP as a function of CPUs used, for NAS BT and SP on the
// KNL-like platform. Values > 1.0 beat the Linux baseline.
func (s *Stack) Fig6(cfg Fig6Config) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Kernel OpenMP performance relative to Linux (KNL-like)",
		Header: []string{"kernel", "CPUs", "linux (Mcyc)", "RTK", "PIK", "CCK"},
	}
	type cell struct {
		k    workloads.NASKernel
		cpus int
	}
	var cs []cell
	for _, k := range cfg.Kernels {
		if cfg.Steps > 0 {
			k.Steps = cfg.Steps
		}
		for _, cpus := range cfg.CPUCounts {
			cs = append(cs, cell{k, cpus})
		}
	}
	type res struct {
		Base             int64
		RRTK, RPIK, RCCK float64
	}
	var rtkRatios, pikRatios []float64
	// One cell per (kernel, CPU count): the four runtime modes each
	// price the kernel on their own runtime.
	results := runCells(s, "fig6", len(cs), func(i int) res {
		c := cs[i]
		base := s.ompRun(omp.ModeLinux, c.cpus, c.k)
		rtk := s.ompRun(omp.ModeRTK, c.cpus, c.k)
		pik := s.ompRun(omp.ModePIK, c.cpus, c.k)
		cck := s.ompRun(omp.ModeCCK, c.cpus, c.k)
		return res{
			Base: base,
			RRTK: float64(base) / float64(rtk),
			RPIK: float64(base) / float64(pik),
			RCCK: float64(base) / float64(cck),
		}
	})
	for i, r := range results {
		if cs[i].cpus > 1 {
			rtkRatios = append(rtkRatios, r.RRTK)
			pikRatios = append(pikRatios, r.RPIK)
		}
		t.AddRow(cs[i].k.Name, i64(int64(cs[i].cpus)), f1(float64(r.Base)/1e6),
			f2(r.RRTK), f2(r.RPIK), f2(r.RCCK))
	}
	t.AddNote("RTK geomean gain %s, PIK geomean gain %s (paper: ~22%% RTK geomean on KNL; PIK performs similarly; CCK not easily summarized)",
		pct(stats.GeoMean(rtkRatios)-1), pct(stats.GeoMean(pikRatios)-1))
	return t
}

// EPCC regenerates the EPCC-style synchronization microbenchmark
// comparison: per-region overhead cycles by mode.
func (s *Stack) EPCC(cpus int) *Table {
	t := &Table{
		ID:     "epcc",
		Title:  fmt.Sprintf("EPCC-style sync overhead per region, %d CPUs (cycles)", cpus),
		Header: []string{"benchmark", "linux", "rtk", "pik", "cck"},
	}
	for _, b := range workloads.EPCC() {
		row := []string{b.Name}
		for _, mode := range []omp.Mode{omp.ModeLinux, omp.ModeRTK, omp.ModePIK, omp.ModeCCK} {
			rt := omp.New(cpus, s.Model, mode, s.Seed)
			row = append(row, f1(rt.RunEPCC(b)))
		}
		t.AddRow(row...)
	}
	t.AddNote("all three kernel paths run the full Edinburgh OpenMP microbenchmarks in the paper; the kernel primitives cut the empty-region overhead")
	return t
}

// ompRun prices kernel k on a cpus-wide team in one mode. The runtime
// needs only the CPU count and the model, so no machine is built.
func (s *Stack) ompRun(mode omp.Mode, cpus int, k workloads.NASKernel) int64 {
	return omp.New(cpus, s.Model, mode, s.Seed).RunKernel(k)
}

// Schedules regenerates the EPCC scheduling-benchmark dimension: loop
// schedules (static/dynamic/guided) under uniform and imbalanced
// iteration costs, on the Linux and RTK runtimes.
func (s *Stack) Schedules(cpus int) *Table {
	t := &Table{
		ID:     "schedules",
		Title:  fmt.Sprintf("Loop schedules, %d CPUs (completion, Kcyc)", cpus),
		Header: []string{"workload", "runtime", "static", "dynamic", "guided"},
	}
	const items = 16_384
	uniform := omp.UniformCost(50)
	tri := omp.TriangularCost(10, 1, 4)
	for _, w := range []struct {
		name string
		cost func(int64) int64
	}{{"uniform", uniform}, {"triangular", tri}} {
		for _, mode := range []omp.Mode{omp.ModeLinux, omp.ModeRTK} {
			row := []string{w.name, mode.String()}
			for _, sched := range []omp.Schedule{omp.SchedStatic, omp.SchedDynamic, omp.SchedGuided} {
				rt := omp.New(cpus, s.Model, mode, s.Seed)
				row = append(row, f1(float64(rt.RunLoop(items, w.cost, sched, 16))/1e3))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("static wins on uniform loops (no dispensing); dynamic/guided win under imbalance; the kernel runtime cheapens dynamic dispensing")
	return t
}

// TaskGranularity regenerates the fine-grain tasking argument (§IV-C /
// granular computing [51]): at small task sizes, per-task dispatch
// overhead decides viability, and the kernel paths push the viable
// granularity far below user-level Linux.
func (s *Stack) TaskGranularity(cpus int) *Table {
	t := &Table{
		ID:     "tasks",
		Title:  fmt.Sprintf("Fine-grain task viability, %d CPUs (fib task DAG)", cpus),
		Header: []string{"leaf cycles", "mode", "makespan (Kcyc)", "overhead/work"},
	}
	for _, leaf := range []int64{100, 1_000, 10_000} {
		nodes := omp.FibTaskGraph(14, leaf, leaf/4+10)
		var work int64
		for _, n := range nodes {
			work += n.Cycles
		}
		for _, mode := range []omp.Mode{omp.ModeLinux, omp.ModeRTK, omp.ModeCCK} {
			rt := omp.New(cpus, s.Model, mode, s.Seed)
			mk, gst := rt.RunTaskGraph(nodes)
			t.AddRow(i64(leaf), mode.String(), f1(float64(mk)/1e3),
				f2(float64(gst.OverheadCycles)/float64(work)))
		}
	}
	t.AddNote("overhead/work > 1 means dispatch costs exceed the computation itself — the granularity wall the interwoven paths push back")
	return t
}
