package pipeline

import (
	"testing"

	"repro/internal/model"
)

func TestCompareSpeedupInPaperRange(t *testing.T) {
	// §V-D: pipeline delivery is "100-1000x better" than the ~1000
	// cycle dispatch.
	r := Compare(model.Default(), DefaultConfig())
	if r.SpeedupMean < 100 || r.SpeedupMean > 1000 {
		t.Fatalf("speedup = %.0fx, paper range is 100-1000x", r.SpeedupMean)
	}
	if r.IDT.Mean < 800 || r.IDT.Mean > 1400 {
		t.Fatalf("IDT mean = %.0f, want ≈1000 cycles", r.IDT.Mean)
	}
	if r.Pipeline.Mean > 5 {
		t.Fatalf("pipeline mean = %.1f, want branch-like", r.Pipeline.Mean)
	}
}

func TestIDTSamplesHaveVariance(t *testing.T) {
	r := Compare(model.Default(), DefaultConfig())
	if r.IDT.Std <= 0 {
		t.Fatal("IDT path should show microarchitectural variance")
	}
	if r.IDT.N != DefaultConfig().Samples {
		t.Fatalf("samples = %d", r.IDT.N)
	}
}

func TestPipelineMispredictTail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MispredictRate = 0.5
	r := Compare(model.Default(), cfg)
	// With heavy conflicts, the mean must rise toward the flush cost.
	if r.Pipeline.Mean <= float64(model.Default().HW.PredictedBranch) {
		t.Fatal("mispredictions not reflected")
	}
	if r.Pipeline.Max < float64(model.Default().HW.MispredictedBranch) {
		t.Fatal("no flush-cost samples observed")
	}
}

func TestZeroMispredictIsConstant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MispredictRate = 0
	r := Compare(model.Default(), cfg)
	if r.Pipeline.Std != 0 {
		t.Fatal("pure predicted-branch delivery should be constant")
	}
}

func TestMinGranularity(t *testing.T) {
	idt, pipe := MinGranularity(model.Default(), 0.05)
	if idt <= pipe {
		t.Fatal("IDT granularity floor must be coarser")
	}
	ratio := float64(idt) / float64(pipe)
	if ratio < 100 {
		t.Fatalf("granularity improvement = %.0fx, want >= 100x", ratio)
	}
	// Bad budget falls back to 5%.
	idt2, _ := MinGranularity(model.Default(), 0)
	if idt2 != idt {
		t.Fatal("budget fallback wrong")
	}
}

func TestDeterministic(t *testing.T) {
	a := Compare(model.Default(), DefaultConfig())
	b := Compare(model.Default(), DefaultConfig())
	if a.IDT.Mean != b.IDT.Mean || a.Pipeline.Mean != b.Pipeline.Mean {
		t.Fatal("nondeterministic measurement")
	}
}
