package nautilus

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

type threadState int

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

// ThreadOpts carry the Fig. 4 parameter space: real-time scheduling class
// and floating-point state usage.
type ThreadOpts struct {
	RT bool
	FP bool
}

type actionKind int

const (
	actCompute actionKind = iota
	actYield
	actWait
	actSignal
	actBroadcast
	actExit
)

type action struct {
	kind   actionKind
	cycles int64
	ev     *Event
}

// Thread is a simulated kernel thread or fiber. Its body runs as a real
// Go function, driven in lock-step with the simulation.
type Thread struct {
	ID    int
	CPU   int
	Class Class
	Opts  ThreadOpts

	// StateAddr is the thread's simulated state block (stack + TCB),
	// placed in its CPU's local NUMA zone at spawn; 0 if allocation
	// failed under memory pressure.
	StateAddr mem.Addr
	stateSize uint64

	body  func(*ThreadCtx)
	state threadState

	// Coroutine machinery.
	started bool
	req     chan action
	res     chan struct{}
	kill    chan struct{}
	killed  bool

	// paused holds interrupted compute work (hardware-timer preemption).
	paused *machine.PausedRun
	// computeLeft holds remaining compute cycles when a compiler-timed
	// fiber was switched out at a check.
	computeLeft int64
	// qAcc accumulates quantum usage for compiler timing.
	qAcc int64

	// doneEv fires when the thread exits.
	doneEv *Event

	// ComputeCycles counts useful work completed.
	ComputeCycles int64
	// Yields counts voluntary yields.
	Yields int64
}

// Done reports whether the thread has exited.
func (t *Thread) Done() bool { return t.state == stateDone }

// errKilled aborts a thread body during Kernel.Shutdown.
type errKilled struct{}

func (t *Thread) killOnce() {
	if !t.killed {
		t.killed = true
		close(t.kill)
	}
}

// ThreadCtx is the API a thread body uses to interact with the kernel.
// All methods must be called from the thread's own body function.
type ThreadCtx struct {
	T *Thread
	K *Kernel
}

func (tc *ThreadCtx) do(a action) {
	select {
	case tc.T.req <- a:
	case <-tc.T.kill:
		panic(errKilled{})
	}
	select {
	case <-tc.T.res:
	case <-tc.T.kill:
		panic(errKilled{})
	}
}

// Compute consumes cycles of CPU work. Under hardware timing it may be
// preempted by the timer; under compiler timing it is chunked into
// injected checks.
func (tc *ThreadCtx) Compute(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	tc.do(action{kind: actCompute, cycles: cycles})
}

// Yield voluntarily gives up the CPU to the next ready thread.
func (tc *ThreadCtx) Yield() {
	tc.do(action{kind: actYield})
}

// Wait blocks until ev is signaled.
func (tc *ThreadCtx) Wait(ev *Event) {
	tc.do(action{kind: actWait, ev: ev})
}

// Signal wakes one waiter of ev.
func (tc *ThreadCtx) Signal(ev *Event) {
	tc.do(action{kind: actSignal, ev: ev})
}

// Broadcast wakes all waiters of ev.
func (tc *ThreadCtx) Broadcast(ev *Event) {
	tc.do(action{kind: actBroadcast, ev: ev})
}

// proceed gives the CPU to t: first entry starts the body goroutine;
// re-entry resumes interrupted or chunk-parked compute, or unblocks the
// body and pumps its next action.
func (t *Thread) proceed(cs *cpuSched) {
	if !t.started {
		t.started = true
		tc := &ThreadCtx{T: t, K: cs.k}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(errKilled); ok {
						return
					}
					panic(r)
				}
			}()
			t.body(tc)
			// Body finished: issue exit.
			select {
			case t.req <- action{kind: actExit}:
			case <-t.kill:
			}
		}()
		t.pump(cs)
		return
	}
	if t.paused != nil {
		p := t.paused
		t.paused = nil
		cs.cpu.Resume(p)
		return
	}
	if t.computeLeft > 0 {
		left := t.computeLeft
		t.computeLeft = 0
		t.computeChunked(cs, left)
		return
	}
	// Blocked/yielded: resume the body and take its next action.
	t.res <- struct{}{}
	t.pump(cs)
}

// pump takes the thread's next action and executes it. Called only from
// engine context while t owns the CPU.
func (t *Thread) pump(cs *cpuSched) {
	var a action
	select {
	case a = <-t.req:
	case <-t.kill:
		t.finish(cs)
		return
	}
	k := cs.k
	switch a.kind {
	case actCompute:
		if k.Cfg.Timing == TimingCompiler {
			t.computeChunked(cs, a.cycles)
			return
		}
		done := func() {
			t.ComputeCycles += a.cycles
			t.res <- struct{}{}
			t.pump(cs)
		}
		cs.cpu.Run(a.cycles, done)
	case actYield:
		t.Yields++
		if len(cs.runq) == 0 {
			// No one to switch to: continue immediately.
			t.res <- struct{}{}
			t.pump(cs)
			return
		}
		t.state = stateReady
		cs.enqueue(t)
		next := cs.runq[0]
		cs.runq = cs.runq[1:]
		cs.switchTo(next, t)
	case actWait:
		if a.ev.latch && a.ev.set {
			// Latch already set: pass through without blocking.
			t.res <- struct{}{}
			t.pump(cs)
			return
		}
		t.state = stateBlocked
		a.ev.addWaiter(t)
		t.blockAndPickNext(cs)
	case actSignal:
		cost := a.ev.wake(1)
		cs.cpu.Run(cost, func() {
			t.res <- struct{}{}
			t.pump(cs)
		})
	case actBroadcast:
		cost := a.ev.wake(-1)
		cs.cpu.Run(cost, func() {
			t.res <- struct{}{}
			t.pump(cs)
		})
	case actExit:
		t.finish(cs)
	default:
		panic(fmt.Sprintf("nautilus: unknown action %d", a.kind))
	}
}

// computeChunked runs compute work under compiler timing: the injected
// checks execute every CheckIntervalCycles; when the quantum is used up
// and another thread is ready, the check fires a voluntary switch.
func (t *Thread) computeChunked(cs *cpuSched, remaining int64) {
	k := cs.k
	if remaining <= 0 {
		t.res <- struct{}{}
		t.pump(cs)
		return
	}
	chunk := k.Cfg.CheckIntervalCycles
	if chunk <= 0 {
		chunk = 2000
	}
	if chunk > remaining {
		chunk = remaining
	}
	checkCost := k.Model.Nautilus.TimingFrameworkCheck
	cs.cpu.Run(chunk+checkCost, func() {
		t.ComputeCycles += chunk
		t.qAcc += chunk + checkCost
		k.ChecksRun++
		k.CheckCycleSum += checkCost
		left := remaining - chunk
		if t.qAcc >= k.Cfg.QuantumCycles && len(cs.runq) > 0 {
			// The check fires: the timer framework performs a switch.
			k.CheckFires++
			t.qAcc = 0
			t.state = stateReady
			t.computeLeft = left
			cs.enqueue(t)
			next := cs.runq[0]
			cs.runq = cs.runq[1:]
			cs.switchTo(next, t)
			return
		}
		t.computeChunked(cs, left)
	})
}

// blockAndPickNext parks the current thread (already queued elsewhere)
// and dispatches the next ready thread, or idles the CPU.
func (t *Thread) blockAndPickNext(cs *cpuSched) {
	cs.current = nil
	if len(cs.runq) == 0 {
		cs.idle = true
		return
	}
	next := cs.runq[0]
	cs.runq = cs.runq[1:]
	cs.switchTo(next, t)
}

// finish marks the thread done, wakes joiners, and schedules the next.
func (t *Thread) finish(cs *cpuSched) {
	t.state = stateDone
	if t.stateSize != 0 {
		cs.k.freeState(t.CPU, t.StateAddr, t.stateSize)
		t.stateSize = 0
	}
	if t.doneEv != nil {
		wakeCost := t.doneEv.wake(-1)
		// Exit-path wake cost is charged to the scheduler switch below
		// by simply adding it to the next dispatch via a tiny run.
		if wakeCost > 0 && !cs.cpu.Running() {
			cs.current = nil
			cs.cpu.Run(wakeCost, func() { t.afterFinish(cs) })
			return
		}
	}
	t.afterFinish(cs)
}

func (t *Thread) afterFinish(cs *cpuSched) {
	cs.current = nil
	if len(cs.runq) == 0 {
		cs.idle = true
		return
	}
	next := cs.runq[0]
	cs.runq = cs.runq[1:]
	cs.switchTo(next, t)
}

// DoneEvent returns an event that is broadcast when the thread exits,
// creating it on first use. Join by waiting on it.
func (t *Thread) DoneEvent(k *Kernel) *Event {
	if t.doneEv == nil {
		t.doneEv = NewLatch(k)
	}
	return t.doneEv
}
