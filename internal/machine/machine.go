// Package machine implements the simulated hardware substrate: a
// multi-CPU, multi-socket machine with per-CPU preemptible execution,
// local APIC timers, inter-processor interrupts, and two interrupt
// delivery mechanisms — classic IDT dispatch and the paper's proposed
// pipeline (branch-injection) delivery (§V-D).
//
// The machine is a discrete-event model: computation is expressed as
// "run N cycles, then call back", and interrupts genuinely preempt
// in-flight runs, exactly the structure the paper's latency arguments
// depend on. All costs come from internal/model.
package machine

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
)

// Vector identifies an interrupt vector.
type Vector int

// Conventional vectors used by the simulated kernels.
const (
	VecTimer     Vector = 0x20
	VecIPI       Vector = 0x21
	VecHeartbeat Vector = 0x22
	VecDevice    Vector = 0x30
)

// Delivery selects the interrupt delivery mechanism for a vector.
type Delivery int

const (
	// DeliverIDT is the classic interrupt descriptor table dispatch:
	// ~1000 cycles to the first handler instruction (§V-D).
	DeliverIDT Delivery = iota
	// DeliverPipeline is the paper's proposed branch-injection delivery:
	// the interrupt enters the pipeline as if it were a predicted branch.
	// It is only legal in an interwoven (single privilege level) system.
	DeliverPipeline
)

// Topology describes sockets and cores.
type Topology struct {
	Sockets        int
	CoresPerSocket int
}

// NumCPUs returns the total CPU count.
func (t Topology) NumCPUs() int { return t.Sockets * t.CoresPerSocket }

// IntrContext is passed to interrupt handlers. Handlers mutate simulated
// state immediately and report their execution cost through AddCost.
// The CPU reuses one context for every handler it runs, so a handler
// must not keep it past its return.
type IntrContext struct {
	CPU    *CPU
	Vector Vector
	// cost accumulates handler execution cycles.
	cost int64
	// resched requests that, after the handler returns, the kernel's
	// resched hook decide what runs next instead of auto-resuming the
	// preempted work.
	resched bool
}

// AddCost accounts cycles of handler work.
func (c *IntrContext) AddCost(cycles int64) { c.cost += cycles }

// RequestResched asks the kernel layer to make a scheduling decision
// when the handler completes.
func (c *IntrContext) RequestResched() { c.resched = true }

// Handler is an interrupt handler body.
type Handler func(*IntrContext)

// PausedRun describes work that an interrupt preempted.
type PausedRun struct {
	// Remaining is the unexecuted portion of the run, in cycles.
	Remaining int64
	// Done is the original completion callback.
	Done func()
}

// ReschedHook lets a kernel take over after a handler that requested a
// reschedule. It receives the preempted work (nil if the CPU was idle)
// and must arrange all future execution on the CPU; the machine will not
// auto-resume.
type ReschedHook func(cpu *CPU, paused *PausedRun)

// CPUStats accumulates per-CPU accounting.
type CPUStats struct {
	BusyCycles     int64 // cycles spent in Run work
	HandlerCycles  int64 // cycles spent in handler bodies
	DispatchCycles int64 // cycles spent in interrupt entry/exit paths
	Interrupts     int64 // interrupts delivered
	IPIsSent       int64
	IPIsDropped    int64 // IPIs suppressed by the fault hook (chaos)
	Preemptions    int64 // runs preempted by interrupts
}

// CPU is one simulated hardware thread.
type CPU struct {
	ID     int
	Socket int

	m *Machine

	// Execution state: at most one run in flight.
	running      bool
	runEv        sim.EventID
	finishFn     func() // finishRun, bound once, on the first run
	runResumedAt sim.Time
	runRemaining int64
	runDone      func()

	// Interrupt state. A CPU runs one handler at a time (inHandler), so
	// the in-flight handler's state lives here and delivery allocates
	// nothing.
	inHandler bool
	pending   []Vector
	vectors   []vectorEntry
	resched   ReschedHook

	enterFn, exitFn func()      // enterHandler and exitHandler, bound once
	ctx             IntrContext // the in-flight handler's context, reused
	handler         Handler     // the in-flight handler
	exitCost        int64       // its exit path, in cycles
	chained         bool        // it was pended behind the chain's first handler
	paused          *PausedRun  // the run the chain's first handler preempted
	hook            ReschedHook // set at the first handler's exit if it asked to reschedule

	// IPIs on the wire to this CPU, in the order they were scheduled,
	// each arriving through arriveFn (arriveIPI, bound once).
	inbound  []ipiArrival
	arriveFn func()

	apic LAPIC

	Stats CPUStats
}

// vectorEntry is one vector's handler and delivery mechanism. Only a
// handful of vectors exist, so a CPU keeps them in a short slice.
type vectorEntry struct {
	v        Vector
	h        Handler
	delivery Delivery
}

// Machine is the full simulated platform.
type Machine struct {
	Eng   *sim.Engine
	Model model.Model
	CPUs  []*CPU

	// topo is fixed at construction: per-CPU structures are sized from
	// it, so it must never change over the machine's lifetime.
	topo Topology

	// Fault hooks, when non-nil, perturb hardware-level delivery; they
	// are installed by the fault-injection harness (internal/chaos) and
	// must be deterministic functions of their inputs plus harness state.
	//
	// IPIFault is consulted once per IPI destination: returning
	// drop=true suppresses delivery entirely (counted in IPIsDropped),
	// otherwise delay is added to the modeled latency.
	IPIFault func(src, dst int, v Vector) (drop bool, delay int64)
	// TimerFault is consulted every time a LAPIC timer expiry is
	// scheduled; the returned extra cycles stretch that one expiry
	// (jitter). Periodic timers re-draw on every re-arm.
	TimerFault func(cpu int, v Vector, delay int64) int64
}

// New constructs a machine with the given topology and cost model. The
// topology is final: per-CPU structures are sized from it here, and it
// is immutable afterwards (read it back with Topo). The machine itself
// draws no randomness: the layers above it own their generators.
func New(eng *sim.Engine, m model.Model, topo Topology) *Machine {
	if topo.Sockets <= 0 || topo.CoresPerSocket <= 0 {
		panic("machine: invalid topology")
	}
	mach := &Machine{
		Eng:   eng,
		Model: m,
		topo:  topo,
	}
	n := topo.NumCPUs()
	cpus := make([]CPU, n)
	mach.CPUs = make([]*CPU, n)
	for i := range cpus {
		cpu := &cpus[i]
		cpu.ID = i
		cpu.Socket = i / topo.CoresPerSocket
		cpu.m = mach
		cpu.apic.cpu = cpu
		mach.CPUs[i] = cpu
	}
	return mach
}

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// Topo returns the machine's (immutable) topology.
func (m *Machine) Topo() Topology { return m.topo }

// CPU returns the CPU with the given id.
func (m *Machine) CPU(id int) *CPU { return m.CPUs[id] }

// APIC returns the CPU's local APIC.
func (c *CPU) APIC() *LAPIC { return &c.apic }

// SetHandler installs the handler for a vector.
func (c *CPU) SetHandler(v Vector, h Handler) { c.vector(v).h = h }

// SetDelivery selects the delivery mechanism for a vector on this CPU.
func (c *CPU) SetDelivery(v Vector, d Delivery) { c.vector(v).delivery = d }

// vector returns v's entry, adding an empty one (no handler, IDT
// delivery) if v has none.
func (c *CPU) vector(v Vector) *vectorEntry {
	if e := c.find(v); e != nil {
		return e
	}
	c.vectors = append(c.vectors, vectorEntry{v: v})
	return &c.vectors[len(c.vectors)-1]
}

// find returns v's entry, or nil if v has none.
func (c *CPU) find(v Vector) *vectorEntry {
	for i := range c.vectors {
		if c.vectors[i].v == v {
			return &c.vectors[i]
		}
	}
	return nil
}

// SetReschedHook installs the kernel's scheduling takeover hook.
func (c *CPU) SetReschedHook(h ReschedHook) { c.resched = h }

// Running reports whether the CPU has a run in flight.
func (c *CPU) Running() bool { return c.running }

// Run executes cycles of work on the CPU, then calls done. The CPU must
// be idle (sequencing is the kernel layer's job). Interrupts can preempt
// the run; preempted work resumes automatically after the handler unless
// the handler requested a reschedule and a hook is installed.
func (c *CPU) Run(cycles int64, done func()) {
	if c.running {
		panic(fmt.Sprintf("machine: CPU %d already running", c.ID))
	}
	if cycles < 0 {
		cycles = 0
	}
	c.startRun(cycles, done)
}

func (c *CPU) startRun(cycles int64, done func()) {
	c.running = true
	c.runRemaining = cycles
	c.runDone = done
	c.runResumedAt = c.m.Eng.Now()
	if c.finishFn == nil {
		c.finishFn = c.finishRun
	}
	c.runEv = c.m.Eng.After(sim.Time(cycles), c.finishFn)
}

func (c *CPU) finishRun() {
	c.Stats.BusyCycles += c.m.Eng.Now().Sub(c.runResumedAt)
	done := c.runDone
	c.running = false
	c.runEv = sim.EventID{}
	c.runDone = nil
	c.runRemaining = 0
	if done != nil {
		done()
	}
}

// pauseRun suspends the in-flight run and returns its descriptor.
func (c *CPU) pauseRun() *PausedRun {
	if !c.running {
		return nil
	}
	consumed := c.m.Eng.Now().Sub(c.runResumedAt)
	c.Stats.BusyCycles += consumed
	remaining := c.runRemaining - consumed
	if remaining < 0 {
		remaining = 0
	}
	c.m.Eng.Cancel(c.runEv)
	paused := &PausedRun{Remaining: remaining, Done: c.runDone}
	c.running = false
	c.runEv = sim.EventID{}
	c.runDone = nil
	c.runRemaining = 0
	c.Stats.Preemptions++
	return paused
}

// Resume restarts previously paused work on the CPU.
func (c *CPU) Resume(p *PausedRun) {
	if p == nil {
		return
	}
	c.Run(p.Remaining, p.Done)
}

// Raise delivers an interrupt to this CPU at the current simulated time.
// If the CPU is already in a handler the interrupt is pended (x86-like:
// IF is clear during handlers).
func (c *CPU) Raise(v Vector) {
	if c.inHandler {
		c.pending = append(c.pending, v)
		return
	}
	c.dispatch(v)
}

// dispatch starts the entry path of vector v's handler, preempting any
// in-flight run. The handler runs at the end of the entry path
// (enterHandler), then the exit path (exitHandler) runs any pended
// handlers back-to-back before the preempted work resumes.
func (c *CPU) dispatch(v Vector) {
	e := c.find(v)
	if e == nil || e.h == nil {
		// Unhandled vectors are dropped, like a masked line.
		return
	}
	c.paused = c.pauseRun()
	c.chained = false
	c.enter(e)
}

// enter accounts one delivery of e's handler and schedules the handler
// body after the entry path.
func (c *CPU) enter(e *vectorEntry) {
	c.inHandler = true
	c.Stats.Interrupts++

	var entry, exit int64
	switch e.delivery {
	case DeliverPipeline:
		// Branch-injection delivery: the interrupt costs about as much
		// as a correctly predicted branch; return is an MSR-mediated
		// jump similar to sysret.
		entry = c.m.Model.HW.PredictedBranch
		exit = c.m.Model.HW.PredictedBranch + 2
	default:
		entry = c.m.Model.HW.InterruptDispatch
		exit = c.m.Model.HW.InterruptReturn
	}
	c.Stats.DispatchCycles += entry + exit

	c.ctx = IntrContext{CPU: c, Vector: e.v}
	c.handler = e.h
	c.exitCost = exit
	if c.enterFn == nil {
		c.enterFn, c.exitFn = c.enterHandler, c.exitHandler
	}
	c.m.Eng.After(sim.Time(entry), c.enterFn)
}

// enterHandler runs the handler body, then schedules the exit path.
func (c *CPU) enterHandler() {
	c.handler(&c.ctx)
	c.Stats.HandlerCycles += c.ctx.cost
	c.m.Eng.After(sim.Time(c.ctx.cost+c.exitCost), c.exitFn)
}

// exitHandler completes a handler. Pended interrupts are delivered
// before the preempted work resumes, mirroring hardware that re-checks
// interrupt lines at iret; each pays full entry and exit costs. Only the
// chain's first handler decides whether the kernel's resched hook takes
// over from the preempted work.
func (c *CPU) exitHandler() {
	c.inHandler = false
	if !c.chained {
		c.hook = nil
		if c.ctx.resched {
			c.hook = c.resched
		}
	}
	for len(c.pending) > 0 {
		v := c.pending[0]
		// Shift rather than reslice, so the queue keeps its backing
		// array and a warm CPU pends without allocating.
		c.pending = c.pending[:copy(c.pending, c.pending[1:])]
		if e := c.find(v); e != nil && e.h != nil {
			c.chained = true
			c.enter(e)
			return
		}
	}
	paused, hook := c.paused, c.hook
	c.paused, c.hook = nil, nil
	if hook != nil {
		hook(c, paused)
		return
	}
	c.Resume(paused)
}

// ipiArrival is one IPI on the wire. delayed marks an IPI the fault
// hook already held back: it raises on arrival without asking again.
type ipiArrival struct {
	at      sim.Time
	src     int
	v       Vector
	delayed bool
}

// SendIPI sends an inter-processor interrupt to dst. The wire event
// always travels at the modeled latency; the fault hook (chaos) is
// consulted at arrival, so the effective delivery time is the base
// latency plus the injected delay.
func (c *CPU) SendIPI(dst *CPU, v Vector) {
	c.Stats.IPIsSent++
	lat := c.m.Model.HW.IPILatency
	if c.Socket != dst.Socket {
		lat += c.m.Model.Coherence.RemoteSocket
	}
	dst.expectIPI(ipiArrival{at: c.m.Eng.Now() + sim.Time(lat), src: c.ID, v: v})
}

// expectIPI puts a on the wire to c: it joins c's inbound list and
// schedules c's bound arrival callback at a.at.
func (c *CPU) expectIPI(a ipiArrival) {
	if c.arriveFn == nil {
		c.arriveFn = c.arriveIPI
	}
	c.inbound = append(c.inbound, a)
	c.m.Eng.At(a.at, c.arriveFn)
}

// arriveIPI completes an IPI on the destination CPU: consult the fault
// hook, then deliver now or after the injected delay. Dropped IPIs are
// accounted to the destination (the CPU that lost the interrupt).
//
// The engine fires c's arrivals in (time, schedule order), and inbound
// holds them in schedule order, so the arrival firing now is the first
// inbound entry due now.
func (c *CPU) arriveIPI() {
	now := c.m.Eng.Now()
	i := 0
	for c.inbound[i].at != now {
		i++
	}
	a := c.inbound[i]
	c.inbound = append(c.inbound[:i], c.inbound[i+1:]...)
	if f := c.m.IPIFault; f != nil && !a.delayed {
		drop, extra := f(a.src, c.ID, a.v)
		if drop {
			c.Stats.IPIsDropped++
			return
		}
		if extra > 0 {
			a.at, a.delayed = now+sim.Time(extra), true
			c.expectIPI(a)
			return
		}
	}
	c.Raise(a.v)
}

// BroadcastIPI sends an IPI to every other CPU. The LAPIC broadcast
// mechanism delivers with a small per-destination skew.
func (c *CPU) BroadcastIPI(v Vector) {
	i := int64(0)
	now := c.m.Eng.Now()
	for _, dst := range c.m.CPUs {
		if dst == c {
			continue
		}
		c.Stats.IPIsSent++
		lat := c.m.Model.HW.IPILatency + i*c.m.Model.HW.IPIBroadcastPerCPU
		if c.Socket != dst.Socket {
			lat += c.m.Model.Coherence.RemoteSocket
		}
		i++
		dst.expectIPI(ipiArrival{at: now + sim.Time(lat), src: c.ID, v: v})
	}
}
