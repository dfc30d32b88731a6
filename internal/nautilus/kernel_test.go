package nautilus

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

func newKernel(t *testing.T, cpus int, cfg Config) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: cpus})
	k := New(m, cfg)
	t.Cleanup(k.Shutdown)
	return eng, k
}

func TestSingleThreadRuns(t *testing.T) {
	eng, k := newKernel(t, 1, DefaultConfig())
	var trace []int64
	th := k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(1000)
		trace = append(trace, int64(eng.Now()))
		tc.Compute(2000)
		trace = append(trace, int64(eng.Now()))
	})
	eng.Run()
	if !th.Done() {
		t.Fatal("thread did not finish")
	}
	if len(trace) != 2 || trace[1]-trace[0] != 2000 {
		t.Fatalf("trace = %v", trace)
	}
	if th.ComputeCycles != 3000 {
		t.Fatalf("compute cycles = %d", th.ComputeCycles)
	}
}

func TestCooperativeYieldAlternates(t *testing.T) {
	cfg := Config{Timing: TimingCooperative, QuantumCycles: 1 << 30}
	eng, k := newKernel(t, 1, cfg)
	var order []int
	mk := func(id int) func(*ThreadCtx) {
		return func(tc *ThreadCtx) {
			for i := 0; i < 3; i++ {
				tc.Compute(100)
				order = append(order, id)
				tc.Yield()
			}
		}
	}
	k.Spawn(0, ClassFiber, ThreadOpts{}, mk(1))
	k.Spawn(0, ClassFiber, ThreadOpts{}, mk(2))
	eng.Run()
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestYieldWithEmptyQueueContinues(t *testing.T) {
	eng, k := newKernel(t, 1, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	done := false
	k.Spawn(0, ClassFiber, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(10)
		tc.Yield() // alone on the CPU
		tc.Compute(10)
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("solo yield deadlocked")
	}
}

func TestHWTimerPreemption(t *testing.T) {
	cfg := Config{Timing: TimingHWTimer, QuantumCycles: 10_000}
	eng, k := newKernel(t, 1, cfg)
	k.StartTimers()
	var finished []int
	mk := func(id int) func(*ThreadCtx) {
		return func(tc *ThreadCtx) {
			tc.Compute(50_000)
			finished = append(finished, id)
		}
	}
	k.Spawn(0, ClassThread, ThreadOpts{}, mk(1))
	k.Spawn(0, ClassThread, ThreadOpts{}, mk(2))
	eng.RunUntil(1_000_000)
	if len(finished) != 2 {
		t.Fatalf("finished = %v", finished)
	}
	// With a 10k quantum and 50k of work each, preemption must have
	// interleaved them: at least a few switches beyond the two initial
	// dispatches.
	if k.Switches < 6 {
		t.Fatalf("switches = %d; preemption did not interleave", k.Switches)
	}
	// Both threads' work was preserved exactly.
	for _, th := range k.Threads() {
		if th.ComputeCycles != 50_000 {
			t.Fatalf("thread %d compute = %d", th.ID, th.ComputeCycles)
		}
	}
}

func TestCompilerTimedSwitching(t *testing.T) {
	cfg := Config{Timing: TimingCompiler, QuantumCycles: 10_000, CheckIntervalCycles: 1000}
	eng, k := newKernel(t, 1, cfg)
	var finished []int
	mk := func(id int) func(*ThreadCtx) {
		return func(tc *ThreadCtx) {
			tc.Compute(50_000)
			finished = append(finished, id)
		}
	}
	k.Spawn(0, ClassFiber, ThreadOpts{}, mk(1))
	k.Spawn(0, ClassFiber, ThreadOpts{}, mk(2))
	eng.RunUntil(10_000_000)
	if len(finished) != 2 {
		t.Fatalf("finished = %v", finished)
	}
	if k.ChecksRun == 0 {
		t.Fatal("no timing checks ran")
	}
	if k.CheckFires == 0 {
		t.Fatal("no timing check ever fired a switch")
	}
	// No hardware interrupts were needed at all — that is the point of
	// compiler-based timing.
	if k.M.CPU(0).Stats.Interrupts != 0 {
		t.Fatalf("interrupts = %d; compiler timing must avoid them", k.M.CPU(0).Stats.Interrupts)
	}
	for _, th := range k.Threads() {
		if th.ComputeCycles != 50_000 {
			t.Fatalf("thread %d compute = %d, want 50000", th.ID, th.ComputeCycles)
		}
	}
}

func TestEventWaitSignal(t *testing.T) {
	eng, k := newKernel(t, 1, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	ev := NewEvent(k)
	var log []string
	k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		log = append(log, "wait")
		tc.Wait(ev)
		log = append(log, "woken")
	})
	k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(5000)
		log = append(log, "signal")
		tc.Signal(ev)
	})
	eng.Run()
	if len(log) != 3 || log[0] != "wait" || log[1] != "signal" || log[2] != "woken" {
		t.Fatalf("log = %v", log)
	}
	if ev.Wakeups != 1 {
		t.Fatalf("wakeups = %d", ev.Wakeups)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	eng, k := newKernel(t, 2, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	ev := NewEvent(k)
	woken := 0
	for i := 0; i < 4; i++ {
		cpu := i % 2
		k.Spawn(cpu, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
			tc.Wait(ev)
			woken++
		})
	}
	k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(20_000) // let everyone block first
		tc.Broadcast(ev)
	})
	eng.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestLatchJoin(t *testing.T) {
	eng, k := newKernel(t, 2, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	worker := k.Spawn(1, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(500)
	})
	done := worker.DoneEvent(k)
	joined := false
	k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(100_000) // worker exits long before this finishes
		tc.Wait(done)       // latch: must pass immediately
		joined = true
	})
	eng.Run()
	if !joined {
		t.Fatal("join on already-exited thread blocked forever")
	}
}

func TestRTThreadRunsFirst(t *testing.T) {
	eng, k := newKernel(t, 1, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	var order []string
	// Occupy the CPU briefly so both spawns queue up before dispatch.
	k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		tc.Compute(10_000)
	})
	k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
		order = append(order, "normal")
	})
	k.Spawn(0, ClassThread, ThreadOpts{RT: true}, func(tc *ThreadCtx) {
		order = append(order, "rt")
	})
	eng.Run()
	if len(order) != 2 || order[0] != "rt" {
		t.Fatalf("order = %v; RT thread must run before non-RT", order)
	}
}

func TestSwitchCostFamily(t *testing.T) {
	// Fig. 4 structure: for every class, FP costs more than no-FP;
	// fibers cost less than threads; compiler-timed fibers cost less
	// than hardware-timer threads; RT adds overhead.
	eng := sim.NewEngine()
	m := machine.New(eng, model.KNL(), machine.Topology{Sockets: 1, CoresPerSocket: 1})

	cost := func(timing TimingMode, cls Class, opts ThreadOpts) int64 {
		k := New(m, Config{Timing: timing, QuantumCycles: 1 << 20})
		return k.switchCost(&Thread{Class: cls, Opts: opts}, nil)
	}

	threadFP := cost(TimingHWTimer, ClassThread, ThreadOpts{FP: true})
	threadNoFP := cost(TimingHWTimer, ClassThread, ThreadOpts{})
	fiberCoop := cost(TimingCooperative, ClassFiber, ThreadOpts{})
	fiberCT := cost(TimingCompiler, ClassFiber, ThreadOpts{})
	fiberCTFP := cost(TimingCompiler, ClassFiber, ThreadOpts{FP: true})
	threadRT := cost(TimingHWTimer, ClassThread, ThreadOpts{RT: true, FP: true})

	if threadFP <= threadNoFP {
		t.Fatal("FP state must add cost")
	}
	if fiberCT >= threadNoFP {
		t.Fatal("compiler-timed fiber must beat hardware-timer thread")
	}
	if fiberCoop > fiberCT {
		t.Fatal("cooperative fiber must not cost more than compiler-timed")
	}
	if threadRT <= threadFP {
		t.Fatal("RT class must add overhead")
	}
	if fiberCTFP <= fiberCT {
		t.Fatal("FP fiber must cost more than no-FP fiber")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		eng := sim.NewEngine()
		m := machine.New(eng, model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: 2})
		k := New(m, Config{Timing: TimingHWTimer, QuantumCycles: 5000})
		defer k.Shutdown()
		k.StartTimers()
		for i := 0; i < 6; i++ {
			cpu := i % 2
			k.Spawn(cpu, ClassThread, ThreadOpts{FP: i%2 == 0}, func(tc *ThreadCtx) {
				for j := 0; j < 10; j++ {
					tc.Compute(3000)
					tc.Yield()
				}
			})
		}
		eng.RunUntil(10_000_000)
		return int64(eng.Now()), k.Switches
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
}

func TestSpawnBadCPUPanics(t *testing.T) {
	_, k := newKernel(t, 1, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Spawn(3, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {})
}

func TestManyThreadsManyCPUs(t *testing.T) {
	eng, k := newKernel(t, 4, Config{Timing: TimingHWTimer, QuantumCycles: 20_000})
	k.StartTimers()
	finished := 0
	for i := 0; i < 32; i++ {
		k.Spawn(i%4, ClassThread, ThreadOpts{FP: i%3 == 0}, func(tc *ThreadCtx) {
			tc.Compute(100_000)
			finished++
		})
	}
	eng.RunUntil(100_000_000)
	if finished != 32 {
		t.Fatalf("finished = %d / 32", finished)
	}
	// Work conservation: total useful cycles must be exact.
	var total int64
	for _, th := range k.Threads() {
		total += th.ComputeCycles
	}
	if total != 32*100_000 {
		t.Fatalf("total compute = %d", total)
	}
}
