package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// dispatchTrace records what a CPU's interrupt path does, one line per
// event, each stamped with the simulated time it happened at.
type dispatchTrace struct {
	eng   *sim.Engine
	lines []string
}

func (tr *dispatchTrace) log(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf("%d ", tr.eng.Now())+fmt.Sprintf(format, args...))
}

// handler returns a handler that logs its entry, charges cost and, if
// resched, asks for a reschedule.
func (tr *dispatchTrace) handler(name string, cost int64, resched bool) Handler {
	return func(ctx *IntrContext) {
		tr.log("enter %s cpu%d vec%#x", name, ctx.CPU.ID, int(ctx.Vector))
		ctx.AddCost(cost)
		if resched {
			ctx.RequestResched()
		}
	}
}

func (tr *dispatchTrace) done(name string) func() {
	return func() { tr.log("done %s", name) }
}

func (tr *dispatchTrace) hook(c *CPU, p *PausedRun) {
	if p == nil {
		tr.log("resched cpu%d idle", c.ID)
		return
	}
	tr.log("resched cpu%d remaining %d", c.ID, p.Remaining)
	c.Resume(p)
}

// TestDispatchTrace pins the interrupt path event by event: the time
// each handler is entered, when preempted work completes or is handed
// to the resched hook, and the CPU's final Stats. The model's costs are
// IDT dispatch 1000 and return 350, and a predicted branch 2, so
// pipeline delivery costs 2 to enter and 4 to leave.
func TestDispatchTrace(t *testing.T) {
	cases := []struct {
		name  string
		setup func(tr *dispatchTrace, eng *sim.Engine, cpu *CPU)
		want  string
	}{{
		// VecTimer preempts a run; while its handler runs, an
		// unhandled vector, a pipeline-delivered one and an IDT one
		// arrive. The unhandled one is skipped; the other two run
		// back-to-back at VecTimer's exit, each paying its own entry
		// and exit, and the run resumes after the last.
		name: "pended chain",
		setup: func(tr *dispatchTrace, eng *sim.Engine, cpu *CPU) {
			cpu.SetHandler(VecTimer, tr.handler("timer", 100, false))
			cpu.SetHandler(VecHeartbeat, tr.handler("beat", 30, false))
			cpu.SetDelivery(VecHeartbeat, DeliverPipeline)
			cpu.SetHandler(VecIPI, tr.handler("ipi", 50, false))
			cpu.Run(10_000, tr.done("run"))
			eng.At(1000, func() { cpu.Raise(VecTimer) })
			eng.At(1500, func() {
				cpu.Raise(VecDevice)
				cpu.Raise(VecHeartbeat)
				cpu.Raise(VecIPI)
			})
		},
		want: `
2000 enter timer cpu0 vec0x20
2452 enter beat cpu0 vec0x22
3486 enter ipi cpu0 vec0x21
12886 done run
{BusyCycles:10000 HandlerCycles:180 DispatchCycles:2706 Interrupts:3 IPIsSent:0 IPIsDropped:0 Preemptions:1}`,
	}, {
		// The first handler asks for a reschedule: at its exit the hook
		// receives the preempted run, and here resumes it.
		name: "resched takes the paused run",
		setup: func(tr *dispatchTrace, eng *sim.Engine, cpu *CPU) {
			cpu.SetReschedHook(tr.hook)
			cpu.SetHandler(VecTimer, tr.handler("timer", 200, true))
			cpu.Run(5000, tr.done("run"))
			eng.At(3000, func() { cpu.Raise(VecTimer) })
		},
		want: `
4000 enter timer cpu0 vec0x20
4550 resched cpu0 remaining 2000
6550 done run
{BusyCycles:5000 HandlerCycles:200 DispatchCycles:1350 Interrupts:1 IPIsSent:0 IPIsDropped:0 Preemptions:1}`,
	}, {
		// The first handler's request outlives the pended chain: the
		// hook runs after the pended handler's exit.
		name: "resched after the chain",
		setup: func(tr *dispatchTrace, eng *sim.Engine, cpu *CPU) {
			cpu.SetReschedHook(tr.hook)
			cpu.SetHandler(VecTimer, tr.handler("timer", 200, true))
			cpu.SetHandler(VecIPI, tr.handler("ipi", 50, false))
			cpu.Run(5000, tr.done("run"))
			eng.At(3000, func() { cpu.Raise(VecTimer) })
			eng.At(4100, func() { cpu.Raise(VecIPI) })
		},
		want: `
4000 enter timer cpu0 vec0x20
5550 enter ipi cpu0 vec0x21
5950 resched cpu0 remaining 2000
7950 done run
{BusyCycles:5000 HandlerCycles:250 DispatchCycles:2700 Interrupts:2 IPIsSent:0 IPIsDropped:0 Preemptions:1}`,
	}, {
		// Only the pended handler asks for a reschedule, and a pended
		// handler's request is ignored: the run resumes on its own.
		name: "pended resched ignored",
		setup: func(tr *dispatchTrace, eng *sim.Engine, cpu *CPU) {
			cpu.SetReschedHook(tr.hook)
			cpu.SetHandler(VecTimer, tr.handler("timer", 100, false))
			cpu.SetHandler(VecIPI, tr.handler("ipi", 100, true))
			cpu.Run(5000, tr.done("run"))
			eng.At(1000, func() { cpu.Raise(VecTimer) })
			eng.At(1200, func() { cpu.Raise(VecIPI) })
		},
		want: `
2000 enter timer cpu0 vec0x20
3450 enter ipi cpu0 vec0x21
7900 done run
{BusyCycles:5000 HandlerCycles:200 DispatchCycles:2700 Interrupts:2 IPIsSent:0 IPIsDropped:0 Preemptions:1}`,
	}, {
		// An interrupt on an idle CPU preempts nothing; its reschedule
		// request hands the hook a nil run. A second one, without a
		// request, resumes nothing.
		name: "idle",
		setup: func(tr *dispatchTrace, eng *sim.Engine, cpu *CPU) {
			cpu.SetReschedHook(tr.hook)
			cpu.SetHandler(VecDevice, tr.handler("dev", 10, true))
			cpu.SetHandler(VecTimer, tr.handler("timer", 10, false))
			eng.At(100, func() { cpu.Raise(VecDevice) })
			eng.At(5000, func() { cpu.Raise(VecTimer) })
		},
		want: `
1100 enter dev cpu0 vec0x30
1460 resched cpu0 idle
6000 enter timer cpu0 vec0x20
{BusyCycles:0 HandlerCycles:20 DispatchCycles:2700 Interrupts:2 IPIsSent:0 IPIsDropped:0 Preemptions:0}`,
	}}
	for _, c := range cases {
		eng := sim.NewEngine()
		m := New(eng, model.Default(), Topology{Sockets: 1, CoresPerSocket: 1})
		cpu := m.CPU(0)
		tr := &dispatchTrace{eng: eng}
		c.setup(tr, eng, cpu)
		eng.Run()
		got := "\n" + strings.Join(tr.lines, "\n") + fmt.Sprintf("\n%+v", cpu.Stats)
		if got != c.want {
			t.Errorf("%s: trace\n%s\nwant%s", c.name, got, c.want)
		}
	}
}
