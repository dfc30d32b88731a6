package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/sim"
)

func newTestMachine(cpus int) (*sim.Engine, *Machine) {
	eng := sim.NewEngine()
	m := New(eng, model.Default(), Topology{Sockets: 1, CoresPerSocket: cpus})
	return eng, m
}

func TestTopology(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, model.Default(), Topology{Sockets: 2, CoresPerSocket: 4})
	if len(m.CPUs) != 8 {
		t.Fatalf("cpus = %d", len(m.CPUs))
	}
	if m.CPU(0).Socket != 0 || m.CPU(3).Socket != 0 || m.CPU(4).Socket != 1 || m.CPU(7).Socket != 1 {
		t.Fatal("socket assignment wrong")
	}
}

func TestInvalidTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), model.Default(), Topology{})
}

func TestRunCompletes(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	done := false
	cpu.Run(1000, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("run did not complete")
	}
	if eng.Now() != 1000 {
		t.Fatalf("clock = %d, want 1000", eng.Now())
	}
	if cpu.Stats.BusyCycles != 1000 {
		t.Fatalf("busy = %d", cpu.Stats.BusyCycles)
	}
}

func TestRunWhileRunningPanics(t *testing.T) {
	_, m := newTestMachine(1)
	cpu := m.CPU(0)
	cpu.Run(100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cpu.Run(100, nil)
}

func TestInterruptPreemptsAndResumes(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	handlerAt := sim.Time(-1)
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) {
		handlerAt = eng.Now()
		ctx.AddCost(200)
	})
	var doneAt sim.Time
	cpu.Run(10_000, func() { doneAt = eng.Now() })
	eng.At(3000, func() { cpu.Raise(VecTimer) })
	eng.Run()

	hw := m.Model.HW
	// Handler body starts after the dispatch cost.
	if want := sim.Time(3000 + hw.InterruptDispatch); handlerAt != want {
		t.Fatalf("handler at %d, want %d", handlerAt, want)
	}
	// The run is delayed by the full interrupt path.
	intrCost := hw.InterruptDispatch + 200 + hw.InterruptReturn
	if want := sim.Time(10_000 + intrCost); doneAt != want {
		t.Fatalf("done at %d, want %d", doneAt, want)
	}
	if cpu.Stats.Preemptions != 1 || cpu.Stats.Interrupts != 1 {
		t.Fatalf("stats = %+v", cpu.Stats)
	}
	if cpu.Stats.BusyCycles != 10_000 {
		t.Fatalf("busy = %d, want 10000 (handler time separate)", cpu.Stats.BusyCycles)
	}
	if cpu.Stats.HandlerCycles != 200 {
		t.Fatalf("handler cycles = %d", cpu.Stats.HandlerCycles)
	}
}

func TestPipelineDeliveryIsCheap(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) { ctx.AddCost(10) })
	cpu.SetDelivery(VecTimer, DeliverPipeline)
	var doneAt sim.Time
	cpu.Run(1000, func() { doneAt = eng.Now() })
	eng.At(500, func() { cpu.Raise(VecTimer) })
	eng.Run()
	hw := m.Model.HW
	pipeCost := hw.PredictedBranch + 10 + hw.PredictedBranch + 2
	if want := sim.Time(1000 + pipeCost); doneAt != want {
		t.Fatalf("done at %d, want %d (pipeline delivery)", doneAt, want)
	}
	// Sanity: pipeline delivery is orders of magnitude cheaper than IDT.
	if pipeCost*50 > hw.InterruptDispatch {
		t.Fatalf("pipeline cost %d not ≪ IDT dispatch %d", pipeCost, hw.InterruptDispatch)
	}
}

func TestInterruptDuringHandlerPends(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	var times []sim.Time
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) {
		times = append(times, eng.Now())
		ctx.AddCost(1000)
	})
	eng.At(100, func() { cpu.Raise(VecTimer) })
	// Second interrupt arrives while the first handler is running.
	eng.At(1500, func() { cpu.Raise(VecTimer) })
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("handlers ran %d times, want 2", len(times))
	}
	hw := m.Model.HW
	firstEnd := sim.Time(100 + hw.InterruptDispatch + 1000 + hw.InterruptReturn)
	if times[1] < firstEnd {
		t.Fatalf("second handler at %d overlapped first ending at %d", times[1], firstEnd)
	}
}

func TestReschedHook(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	var captured *PausedRun
	cpu.SetReschedHook(func(c *CPU, paused *PausedRun) { captured = paused })
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) { ctx.RequestResched() })
	origDone := false
	cpu.Run(10_000, func() { origDone = true })
	eng.At(4000, func() { cpu.Raise(VecTimer) })
	eng.Run()
	if origDone {
		t.Fatal("preempted run completed despite resched takeover")
	}
	if captured == nil {
		t.Fatal("resched hook not called")
	}
	if captured.Remaining != 6000 {
		t.Fatalf("remaining = %d, want 6000", captured.Remaining)
	}
	// The kernel can later resume the paused work.
	cpu.Resume(captured)
	eng.Run()
	if !origDone {
		t.Fatal("resumed run did not complete")
	}
}

func TestIPILatency(t *testing.T) {
	eng, m := newTestMachine(2)
	src, dst := m.CPU(0), m.CPU(1)
	var arrival sim.Time
	dst.SetHandler(VecIPI, func(ctx *IntrContext) { arrival = eng.Now() })
	eng.At(100, func() { src.SendIPI(dst, VecIPI) })
	eng.Run()
	hw := m.Model.HW
	if want := sim.Time(100 + hw.IPILatency + hw.InterruptDispatch); arrival != want {
		t.Fatalf("IPI handler at %d, want %d", arrival, want)
	}
	if src.Stats.IPIsSent != 1 {
		t.Fatal("IPI not counted")
	}
}

func TestCrossSocketIPISlower(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, model.Default(), Topology{Sockets: 2, CoresPerSocket: 2})
	var local, remote sim.Time
	m.CPU(1).SetHandler(VecIPI, func(ctx *IntrContext) { local = eng.Now() })
	m.CPU(2).SetHandler(VecIPI, func(ctx *IntrContext) { remote = eng.Now() })
	eng.At(0, func() {
		m.CPU(0).SendIPI(m.CPU(1), VecIPI)
		m.CPU(0).SendIPI(m.CPU(2), VecIPI)
	})
	eng.Run()
	if remote <= local {
		t.Fatalf("cross-socket IPI (%d) not slower than same-socket (%d)", remote, local)
	}
}

func TestBroadcastIPIReachesAll(t *testing.T) {
	eng, m := newTestMachine(8)
	count := 0
	for _, cpu := range m.CPUs[1:] {
		cpu.SetHandler(VecHeartbeat, func(ctx *IntrContext) { count++ })
	}
	eng.At(0, func() { m.CPU(0).BroadcastIPI(VecHeartbeat) })
	eng.Run()
	if count != 7 {
		t.Fatalf("broadcast reached %d CPUs, want 7", count)
	}
}

func TestLAPICOneShot(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	var at sim.Time
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) { at = eng.Now() })
	eng.At(0, func() { cpu.APIC().OneShot(5000, VecTimer) })
	eng.Run()
	if want := sim.Time(5000 + m.Model.HW.InterruptDispatch); at != want {
		t.Fatalf("timer handler at %d, want %d", at, want)
	}
	if cpu.APIC().Armed() {
		t.Fatal("one-shot still armed after firing")
	}
}

func TestLAPICPeriodicStablePeriod(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	var times []sim.Time
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) {
		times = append(times, eng.Now())
		ctx.AddCost(500) // handler time must NOT skew the period
		if len(times) == 10 {
			cpu.APIC().Stop()
		}
	})
	eng.At(0, func() { cpu.APIC().Periodic(10_000, VecTimer) })
	eng.Run()
	if len(times) != 10 {
		t.Fatalf("fired %d times", len(times))
	}
	for i := 1; i < len(times); i++ {
		if d := times[i].Sub(times[i-1]); d != 10_000 {
			t.Fatalf("period %d = %d, want 10000", i, d)
		}
	}
}

func TestLAPICStop(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	fired := 0
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) { fired++ })
	eng.At(0, func() { cpu.APIC().Periodic(1000, VecTimer) })
	eng.At(3500, func() { cpu.APIC().Stop() })
	eng.RunUntil(100_000)
	if fired != 3 {
		t.Fatalf("fired %d times after stop, want 3", fired)
	}
}

func TestIdleInterrupt(t *testing.T) {
	// Interrupting an idle CPU must work (no paused run to resume).
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	ran := false
	cpu.SetHandler(VecDevice, func(ctx *IntrContext) { ran = true })
	eng.At(10, func() { cpu.Raise(VecDevice) })
	eng.Run()
	if !ran {
		t.Fatal("idle interrupt not delivered")
	}
}

func TestUnhandledVectorDropped(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	done := false
	cpu.Run(100, func() { done = true })
	eng.At(50, func() { cpu.Raise(VecDevice) })
	eng.Run()
	if !done {
		t.Fatal("run never completed")
	}
	if cpu.Stats.Interrupts != 0 {
		t.Fatal("unhandled vector counted as delivered")
	}
}

// TestWorkConservationUnderRandomInterrupts: no matter how interrupts
// preempt and delay runs, the CPU executes exactly the requested cycles
// of work, and handler time never leaks into BusyCycles.
func TestWorkConservationUnderRandomInterrupts(t *testing.T) {
	check := func(seed uint64) bool {
		eng := sim.NewEngine()
		m := New(eng, model.Default(), Topology{Sockets: 1, CoresPerSocket: 1})
		cpu := m.CPU(0)
		rng := sim.NewRNG(seed)
		cpu.SetHandler(VecTimer, func(ctx *IntrContext) {
			ctx.AddCost(int64(rng.Intn(500)))
		})
		var totalWork int64
		var completed int64
		var chain func()
		runs := 0
		chain = func() {
			if runs >= 20 {
				return
			}
			runs++
			w := int64(rng.Intn(5000) + 1)
			totalWork += w
			cpu.Run(w, func() {
				completed += w
				chain()
			})
		}
		chain()
		// Random interrupt storm.
		for i := 0; i < 30; i++ {
			at := sim.Time(rng.Intn(60_000))
			eng.At(at, func() { cpu.Raise(VecTimer) })
		}
		eng.Run()
		return completed == totalWork && cpu.Stats.BusyCycles == totalWork
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptsDelayButNeverLoseWork: elapsed time grows by exactly the
// interrupt path costs.
func TestInterruptsDelayButNeverLoseWork(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	const handlerCost = 300
	n := 0
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) {
		n++
		ctx.AddCost(handlerCost)
	})
	var doneAt sim.Time
	cpu.Run(100_000, func() { doneAt = eng.Now() })
	for i := 1; i <= 5; i++ {
		eng.At(sim.Time(i*10_000), func() { cpu.Raise(VecTimer) })
	}
	eng.Run()
	hw := m.Model.HW
	want := sim.Time(100_000 + 5*(hw.InterruptDispatch+handlerCost+hw.InterruptReturn))
	if doneAt != want {
		t.Fatalf("done at %d, want %d", doneAt, want)
	}
	if n != 5 {
		t.Fatalf("handlers = %d", n)
	}
}
