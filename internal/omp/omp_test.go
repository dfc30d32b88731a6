package omp

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/nautilus"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func runKernel(mode Mode, cpus int, k workloads.NASKernel) int64 {
	return New(cpus, model.KNL(), mode, 5).RunKernel(k)
}

func smallBT() workloads.NASKernel {
	k := workloads.BT()
	k.Steps = 4
	return k
}

func TestModeString(t *testing.T) {
	if ModeLinux.String() != "linux" || ModeRTK.String() != "rtk" ||
		ModePIK.String() != "pik" || ModeCCK.String() != "cck" {
		t.Fatal("mode names wrong")
	}
}

func TestKernelCompletes(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeRTK, ModePIK, ModeCCK} {
		if c := runKernel(mode, 8, smallBT()); c <= 0 {
			t.Fatalf("%s: completion %d", mode, c)
		}
	}
}

func TestParallelScaling(t *testing.T) {
	k := smallBT()
	t1 := runKernel(ModeRTK, 1, k)
	t16 := runKernel(ModeRTK, 16, k)
	sp := float64(t1) / float64(t16)
	if sp < 8 {
		t.Fatalf("16-CPU speedup = %.1f, want >= 8", sp)
	}
}

func TestRTKBeatsLinux(t *testing.T) {
	// Fig. 6: RTK outperforms Linux OpenMP, with ~22% average gain on
	// KNL across scales.
	k := smallBT()
	var ratios []float64
	for _, cpus := range []int{8, 16, 32, 64} {
		lx := runKernel(ModeLinux, cpus, k)
		rtk := runKernel(ModeRTK, cpus, k)
		r := float64(lx) / float64(rtk)
		if r <= 1.0 {
			t.Fatalf("RTK not faster at %d CPUs: ratio %.3f", cpus, r)
		}
		ratios = append(ratios, r)
	}
	g := stats.GeoMean(ratios)
	if g < 1.10 || g > 1.40 {
		t.Fatalf("RTK/Linux geomean = %.3f, want ≈1.22", g)
	}
}

func TestPIKPerformsSimilarlyToRTK(t *testing.T) {
	k := smallBT()
	rtk := runKernel(ModeRTK, 16, k)
	pik := runKernel(ModePIK, 16, k)
	diff := float64(pik-rtk) / float64(rtk)
	if diff < 0 || diff > 0.05 {
		t.Fatalf("PIK vs RTK diff = %.3f, want small positive", diff)
	}
}

func TestCCKCompletesAllWork(t *testing.T) {
	rt := New(8, model.KNL(), ModeCCK, 5)
	k := smallBT()
	rt.RunKernel(k)
	if rt.Stats.Tasks == 0 {
		t.Fatal("CCK ran no tasks")
	}
	wantCompute := k.SerialCycles()
	// CCK compute includes task overheads; must be >= pure work.
	if rt.Stats.ComputeCycles < wantCompute {
		t.Fatalf("compute %d < serial work %d", rt.Stats.ComputeCycles, wantCompute)
	}
}

func TestLinuxOverheadGrowsWithCPUs(t *testing.T) {
	k := smallBT()
	gain := func(cpus int) float64 {
		lx := runKernel(ModeLinux, cpus, k)
		rtk := runKernel(ModeRTK, cpus, k)
		return float64(lx) / float64(rtk)
	}
	if g64, g8 := gain(64), gain(8); g64 <= g8 {
		t.Fatalf("gain at 64 CPUs (%.3f) should exceed gain at 8 (%.3f)", g64, g8)
	}
}

func TestSPMoreSensitiveThanBT(t *testing.T) {
	// SP has lighter cells and more regions: kernel paths help it more.
	bt, sp := workloads.BT(), workloads.SP()
	bt.Steps, sp.Steps = 4, 4
	gain := func(k workloads.NASKernel) float64 {
		return float64(runKernel(ModeLinux, 32, k)) / float64(runKernel(ModeRTK, 32, k))
	}
	if gain(sp) <= gain(bt) {
		t.Fatalf("SP gain %.3f should exceed BT gain %.3f", gain(sp), gain(bt))
	}
}

func TestEPCCOverheadOrdering(t *testing.T) {
	// Pure sync overhead: RTK's primitives must beat Linux's futex path.
	mk := func(mode Mode) float64 {
		rt := New(16, model.KNL(), mode, 5)
		return rt.RunEPCC(workloads.EPCC()[0]) // empty parallel region
	}
	lx, rtk := mk(ModeLinux), mk(ModeRTK)
	if rtk >= lx {
		t.Fatalf("RTK region overhead %f >= Linux %f", rtk, lx)
	}
	if lx < 2*rtk {
		t.Fatalf("Linux overhead (%.0f) should be at least 2x RTK (%.0f)", lx, rtk)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := New(8, model.KNL(), ModeLinux, 5)
	k := smallBT()
	rt.RunKernel(k)
	if rt.Stats.Regions != int64(k.Steps*k.RegionsPerStep) {
		t.Fatalf("regions = %d", rt.Stats.Regions)
	}
	if rt.Stats.ForkCycles == 0 || rt.Stats.BarrierCycles == 0 {
		t.Fatal("fork/barrier not accounted")
	}
	if rt.Stats.ComputeCycles != k.SerialCycles() {
		t.Fatalf("compute = %d, want %d", rt.Stats.ComputeCycles, k.SerialCycles())
	}
}

func TestDeterminism(t *testing.T) {
	a := runKernel(ModeLinux, 16, smallBT())
	b := runKernel(ModeLinux, 16, smallBT())
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestSerialCycles(t *testing.T) {
	k := workloads.BT()
	want := int64(k.Steps) * int64(k.RegionsPerStep) * k.Items * k.CyclesPerItem
	if k.SerialCycles() != want {
		t.Fatal("serial cycles wrong")
	}
}

func TestRunOnKernelCrossValidatesRTK(t *testing.T) {
	// The real nautilus-thread execution and the analytic RTK model
	// must agree on completion time within a modest factor: both are
	// serial-work/N plus per-region synchronization.
	k := workloads.BT()
	k.Steps = 2
	const cpus = 8

	analytic := runKernel(ModeRTK, cpus, k)

	eng := sim.NewEngine()
	m := machine.New(eng, model.KNL(), machine.Topology{Sockets: 1, CoresPerSocket: cpus})
	nk := nautilus.New(m, nautilus.Config{Timing: nautilus.TimingCooperative, QuantumCycles: 1 << 40})
	defer nk.Shutdown()
	real := int64(RunOnKernel(nk, k))

	ratio := float64(real) / float64(analytic)
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("kernel execution %d vs analytic %d: ratio %.2f outside [0.8,1.3]",
			real, analytic, ratio)
	}
	// Both must be close to the ideal serial/N lower bound but above it.
	ideal := k.SerialCycles() / cpus
	if real <= ideal {
		t.Fatalf("real execution %d at or below ideal %d", real, ideal)
	}
	if float64(real) > 1.4*float64(ideal) {
		t.Fatalf("real execution %d too far above ideal %d", real, ideal)
	}
}

func TestRunOnKernelScales(t *testing.T) {
	k := workloads.SP()
	k.Steps = 2
	run := func(cpus int) int64 {
		eng := sim.NewEngine()
		m := machine.New(eng, model.KNL(), machine.Topology{Sockets: 1, CoresPerSocket: cpus})
		nk := nautilus.New(m, nautilus.Config{Timing: nautilus.TimingCooperative, QuantumCycles: 1 << 40})
		defer nk.Shutdown()
		return int64(RunOnKernel(nk, k))
	}
	t2, t16 := run(2), run(16)
	if sp := float64(t2) / float64(t16); sp < 5 {
		t.Fatalf("2->16 CPU speedup = %.1f, want >= 5", sp)
	}
}
