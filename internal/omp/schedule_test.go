package omp

import (
	"testing"

	"repro/internal/model"
)

func newRT(mode Mode, cpus int) *Runtime { return New(cpus, model.KNL(), mode, 5) }

func TestScheduleString(t *testing.T) {
	if SchedStatic.String() != "static" || SchedDynamic.String() != "dynamic" ||
		SchedGuided.String() != "guided" {
		t.Fatal("names wrong")
	}
}

func TestStaticBeatsDynamicOnUniformLoops(t *testing.T) {
	// Uniform iterations: static has zero dispensing cost, so it wins.
	rt := newRT(ModeRTK, 16)
	st := rt.RunLoop(16_384, UniformCost(50), SchedStatic, 16)
	rt2 := newRT(ModeRTK, 16)
	dy := rt2.RunLoop(16_384, UniformCost(50), SchedDynamic, 16)
	if st >= dy {
		t.Fatalf("static %d >= dynamic %d on uniform work", st, dy)
	}
}

func TestDynamicBeatsStaticUnderImbalance(t *testing.T) {
	// Triangular cost: static gives the last worker the most expensive
	// block; dynamic balances.
	cost := TriangularCost(10, 1, 4)
	rt := newRT(ModeRTK, 16)
	st := rt.RunLoop(16_384, cost, SchedStatic, 16)
	rt2 := newRT(ModeRTK, 16)
	dy := rt2.RunLoop(16_384, cost, SchedDynamic, 16)
	if dy >= st {
		t.Fatalf("dynamic %d >= static %d under imbalance", dy, st)
	}
	// The static penalty is structural: the hottest block is nearly 2x
	// the mean for a triangular profile.
	if float64(st)/float64(dy) < 1.3 {
		t.Fatalf("imbalance advantage too small: %.2f", float64(st)/float64(dy))
	}
}

func TestGuidedBetweenStaticAndDynamicOverheads(t *testing.T) {
	// Guided issues fewer, larger chunks than dynamic: fewer grabs.
	cost := TriangularCost(10, 1, 4)
	rtD := newRT(ModeRTK, 16)
	rtD.RunLoop(16_384, cost, SchedDynamic, 16)
	grabsD := rtD.Stats.OverheadCycles
	rtG := newRT(ModeRTK, 16)
	rtG.RunLoop(16_384, cost, SchedGuided, 16)
	grabsG := rtG.Stats.OverheadCycles
	if grabsG >= grabsD {
		t.Fatalf("guided overhead %d >= dynamic %d", grabsG, grabsD)
	}
	// And guided still balances competitively.
	rtS := newRT(ModeRTK, 16)
	st := rtS.RunLoop(16_384, cost, SchedStatic, 16)
	rtG2 := newRT(ModeRTK, 16)
	gd := rtG2.RunLoop(16_384, cost, SchedGuided, 16)
	if gd >= st {
		t.Fatalf("guided %d >= static %d under imbalance", gd, st)
	}
}

func TestKernelModeCheapensDynamicScheduling(t *testing.T) {
	// The kernel runtime keeps the loop descriptor hot: its grab cost
	// is lower, so dynamic scheduling costs less than under Linux.
	lx := newRT(ModeLinux, 16)
	rtk := newRT(ModeRTK, 16)
	if rtk.GrabCost() >= lx.GrabCost() {
		t.Fatalf("RTK grab %d >= Linux grab %d", rtk.GrabCost(), lx.GrabCost())
	}
	cost := UniformCost(30)
	tl := lx.RunLoop(8192, cost, SchedDynamic, 8)
	tk := rtk.RunLoop(8192, cost, SchedDynamic, 8)
	if tk >= tl {
		t.Fatalf("kernel dynamic %d >= linux dynamic %d", tk, tl)
	}
}

func TestRunLoopCompletesAllIterations(t *testing.T) {
	// Work conservation: sum of per-iteration costs is fully executed
	// regardless of schedule (checked via a counting cost function).
	for _, sched := range []Schedule{SchedStatic, SchedDynamic, SchedGuided} {
		executed := make(map[int64]int)
		rt := newRT(ModeRTK, 8)
		rt.RunLoop(1000, func(i int64) int64 {
			executed[i]++
			return 10
		}, sched, 7)
		if len(executed) != 1000 {
			t.Fatalf("%v: executed %d distinct iterations", sched, len(executed))
		}
		for i, n := range executed {
			if n != 1 {
				t.Fatalf("%v: iteration %d executed %d times", sched, i, n)
			}
		}
	}
}

func TestChunkClamping(t *testing.T) {
	rt := newRT(ModeRTK, 4)
	// chunk <= 0 must not loop forever.
	if c := rt.RunLoop(100, UniformCost(5), SchedDynamic, 0); c <= 0 {
		t.Fatal("bad completion")
	}
}

func TestDeterministicSchedules(t *testing.T) {
	run := func() int64 {
		rt := newRT(ModeLinux, 12)
		return rt.RunLoop(10_000, TriangularCost(5, 1, 8), SchedDynamic, 16)
	}
	if run() != run() {
		t.Fatal("nondeterministic")
	}
}
