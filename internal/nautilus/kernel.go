// Package nautilus implements the simulated Nautilus kernel framework
// (§III): per-CPU run queues with bound threads, lightweight kernel
// threads and fibers, hard real-time and round-robin scheduling classes,
// and fast events.
//
// Threads are written as ordinary Go functions against a ThreadCtx; the
// kernel drives them in strict lock-step with the discrete-event engine
// (exactly one simulated entity runs at a time), so execution is fully
// deterministic. Context-switch and primitive costs come from
// internal/model, calibrated to Fig. 4 of the paper.
package nautilus

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// Class selects the thread implementation.
type Class int

const (
	// ClassThread is a full kernel thread: preemptible via the hardware
	// timer, switched in interrupt context.
	ClassThread Class = iota
	// ClassFiber is a lightweight context switched only at yield points
	// — explicit (cooperative) or compiler-injected (compiler-timed).
	ClassFiber
)

// TimingMode selects how preemption points are generated.
type TimingMode int

const (
	// TimingCooperative: no preemption; switches happen only at
	// explicit Yield calls.
	TimingCooperative TimingMode = iota
	// TimingHWTimer: a per-CPU LAPIC timer interrupt drives preemption
	// (classic design; pays interrupt dispatch per switch).
	TimingHWTimer
	// TimingCompiler: compiler-injected timing checks drive preemption
	// (§IV-C); the timer framework is entered by a call, not an
	// interrupt.
	TimingCompiler
)

// Config configures a kernel instance.
type Config struct {
	// Timing selects the preemption mechanism for the whole kernel.
	Timing TimingMode
	// QuantumCycles is the scheduling quantum.
	QuantumCycles int64
	// CheckIntervalCycles is the compiler-timing check spacing (only
	// used with TimingCompiler); this is the granularity the injected
	// checks achieve.
	CheckIntervalCycles int64
	// ZoneBytes sizes each per-socket NUMA memory zone (power of two;
	// 0 selects a 64 MiB default).
	ZoneBytes uint64
}

// DefaultConfig returns a hardware-timer kernel with a 1 ms quantum.
func DefaultConfig() Config {
	return Config{
		Timing:              TimingHWTimer,
		QuantumCycles:       1_000_000,
		CheckIntervalCycles: 2_000,
	}
}

// Kernel is one simulated Nautilus instance on a machine.
type Kernel struct {
	M     *machine.Machine
	Model model.Model
	Cfg   Config

	// Mem is the kernel's NUMA memory: one buddy-backed zone per socket,
	// each fronted by a per-CPU magazine cache (see mem.go). Thread
	// state blocks are placed through it.
	Mem *mem.NUMA

	// WakeDelay, when non-nil, returns extra cycles by which to defer
	// the idle-CPU dispatch that follows an event wake (fault-injection
	// hook; see internal/chaos). The dispatch is only ever delayed,
	// never skipped, so the hook cannot introduce a lost wakeup — it
	// exists to widen the window in which one would be observable.
	WakeDelay func() int64

	cpus     []*cpuSched
	nextTID  int
	threads  []*Thread
	memStats MemStats

	// Stats.
	Switches      int64
	SwitchCycles  int64
	Spawns        int64
	EventSignals  int64
	CheckFires    int64 // compiler-timing checks that triggered a switch
	ChecksRun     int64 // compiler-timing checks executed
	CheckCycleSum int64 // cycles spent running checks
}

// cpuSched is the per-CPU scheduler state.
type cpuSched struct {
	k       *Kernel
	cpu     *machine.CPU
	runq    []*Thread // FIFO ready queue (RT threads sorted first)
	current *Thread
	idle    bool
	// switching marks a context switch in flight; preemption is
	// deferred for its duration (the switch path runs with interrupts
	// effectively disabled, as in a real kernel).
	switching bool
}

// New creates a kernel over machine m.
func New(m *machine.Machine, cfg Config) *Kernel {
	k := &Kernel{M: m, Model: m.Model, Cfg: cfg}
	k.initMem()
	for _, cpu := range m.CPUs {
		cs := &cpuSched{k: k, cpu: cpu, idle: true}
		k.cpus = append(k.cpus, cs)
		cpu.SetReschedHook(cs.reschedHook)
		if cfg.Timing == TimingHWTimer {
			c := cpu
			cpu.SetHandler(machine.VecTimer, func(ctx *machine.IntrContext) {
				// Timer tick: charge the handler's bookkeeping and ask
				// for a scheduling pass on the way out.
				ctx.AddCost(k.Model.Nautilus.TimingFrameworkFire)
				ctx.RequestResched()
				_ = c
			})
		}
	}
	return k
}

// StartTimers arms the per-CPU preemption timers (hardware-timer mode
// only; compiler timing needs no timer at all — that is the point).
func (k *Kernel) StartTimers() {
	if k.Cfg.Timing != TimingHWTimer {
		return
	}
	for _, cs := range k.cpus {
		cs.cpu.APIC().Periodic(k.Cfg.QuantumCycles, machine.VecTimer)
	}
}

// Spawn creates a thread bound to cpu, ready to run. Nautilus threads
// are bound: "for threads that are bound to specific CPUs, essential
// thread state is guaranteed to always be in the most desirable zone".
func (k *Kernel) Spawn(cpu int, cls Class, opts ThreadOpts, body func(*ThreadCtx)) *Thread {
	if cpu < 0 || cpu >= len(k.cpus) {
		panic(fmt.Sprintf("nautilus: bad CPU %d", cpu))
	}
	t := &Thread{
		ID:    k.nextTID,
		CPU:   cpu,
		Class: cls,
		Opts:  opts,
		body:  body,
		state: stateReady,
		req:   make(chan action),
		res:   make(chan struct{}),
		kill:  make(chan struct{}),
	}
	// Place the thread's state block (stack + TCB; smaller for fibers) in
	// the CPU's local zone — bound threads keep their essential state in
	// the most desirable zone.
	stateBytes := uint64(threadStateBytes)
	if cls == ClassFiber {
		stateBytes = fiberStateBytes
	}
	t.StateAddr, t.stateSize = k.allocState(cpu, stateBytes)
	k.nextTID++
	k.threads = append(k.threads, t)
	k.Spawns++
	cs := k.cpus[cpu]
	cs.enqueue(t)
	// Creation itself costs cycles on the spawning path; charged to the
	// engine clock lazily when the CPU dispatches.
	k.M.Eng.After(sim.Time(k.Model.Nautilus.ThreadCreate), func() {
		cs.maybeDispatch()
	})
	return t
}

// Shutdown kills all threads, releasing their goroutines. The simulation
// cannot be continued afterwards.
func (k *Kernel) Shutdown() {
	for _, t := range k.threads {
		t.killOnce()
	}
}

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// enqueue adds t to the ready queue, RT class before non-RT (simple
// fixed-priority approximation of the EDF class).
func (cs *cpuSched) enqueue(t *Thread) {
	t.state = stateReady
	if t.Opts.RT {
		// Insert after any existing RT threads, before non-RT.
		i := 0
		for i < len(cs.runq) && cs.runq[i].Opts.RT {
			i++
		}
		cs.runq = append(cs.runq, nil)
		copy(cs.runq[i+1:], cs.runq[i:])
		cs.runq[i] = t
		return
	}
	cs.runq = append(cs.runq, t)
}

// maybeDispatch starts the next thread if the CPU is idle.
func (cs *cpuSched) maybeDispatch() {
	if !cs.idle || cs.cpu.Running() {
		return
	}
	if len(cs.runq) == 0 {
		return
	}
	next := cs.runq[0]
	cs.runq = cs.runq[1:]
	cs.idle = false
	cs.switchTo(next, nil)
}

// switchTo makes next the current thread, paying the context-switch cost
// appropriate to the switch kind, then continues next's execution.
func (cs *cpuSched) switchTo(next *Thread, from *Thread) {
	k := cs.k
	cost := k.switchCost(next, from)
	k.Switches++
	k.SwitchCycles += cost
	cs.current = next
	next.state = stateRunning
	cs.switching = true
	cs.cpu.Run(cost, func() {
		cs.switching = false
		next.proceed(cs)
	})
}

// switchCost composes the cycle cost of switching to next (Fig. 4's
// parameter space). The FP state cost is paid if either side uses FP.
func (k *Kernel) switchCost(next, from *Thread) int64 {
	nk := k.Model.Nautilus
	hw := k.Model.HW
	var c int64
	fp := next.Opts.FP || (from != nil && from.Opts.FP)
	switch next.Class {
	case ClassFiber:
		c = nk.FiberYield + hw.GPRSaveRestore
		if k.Cfg.Timing == TimingCompiler {
			c += nk.TimingFrameworkFire
		}
	default: // ClassThread
		c = nk.ThreadSwitch + hw.GPRSaveRestore
		if k.Cfg.Timing == TimingHWTimer {
			// Thread switches ride the timer interrupt: entry+exit are
			// accounted by the machine's dispatch path when the switch
			// is interrupt-driven; for voluntary switches we charge
			// them here to keep Fig. 4's "threads pay interrupt costs"
			// structure.
			c += hw.InterruptDispatch + hw.InterruptReturn
		}
	}
	if fp {
		c += hw.FPStateSave + hw.FPStateRestore
	}
	if next.Opts.RT || (from != nil && from.Opts.RT) {
		c += nk.RTOverhead
	}
	return c
}

// reschedHook is installed as the machine's post-interrupt scheduling
// takeover: the timer handler (or any handler that requests rescheduling)
// lands here with the preempted work.
func (cs *cpuSched) reschedHook(cpu *machine.CPU, paused *machine.PausedRun) {
	if cs.switching {
		// Preemption arrived mid-context-switch: finish the switch
		// first (interrupts are logically disabled on the switch path).
		cpu.Resume(paused)
		return
	}
	cur := cs.current
	if cur == nil || paused == nil {
		// Idle CPU tick, or spurious: resume whatever was paused.
		cpu.Resume(paused)
		return
	}
	if len(cs.runq) == 0 {
		// Nothing else to run; continue current without a switch.
		cpu.Resume(paused)
		return
	}
	// Preempt: park current (with its remaining work), pick next.
	cur.state = stateReady
	cur.paused = paused
	cs.enqueue(cur)
	next := cs.runq[0]
	cs.runq = cs.runq[1:]
	cs.switchTo(next, cur)
}
