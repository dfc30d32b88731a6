package machine

import (
	"runtime/debug"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestNewAllocsIndependentOfCPUs checks that building a machine makes
// the same few allocations at any CPU count: the Machine, one backing
// array of CPUs (each with its LAPIC inside) and the slice of pointers
// into it. No per-CPU map, LAPIC or bound callback is allocated up
// front.
func TestNewAllocsIndependentOfCPUs(t *testing.T) {
	eng := sim.NewEngine()
	mdl := model.Default()
	for _, cpus := range []int{1, 16, 256} {
		topo := Topology{Sockets: 1, CoresPerSocket: cpus}
		debug.FreeOSMemory()
		if a := testing.AllocsPerRun(20, func() { New(eng, mdl, topo) }); a != 3 {
			t.Errorf("%d CPUs: %.1f allocations per machine, want 3", cpus, a)
		}
	}
}

// TestInterruptAllocs checks what one interrupt costs the Go heap once
// the CPU is warm: nothing on an idle CPU, exactly the PausedRun when it
// preempts a run (the resched hook may keep that), and nothing per IPI
// destination.
func TestInterruptAllocs(t *testing.T) {
	eng, m := newTestMachine(1)
	cpu := m.CPU(0)
	cpu.SetHandler(VecTimer, func(ctx *IntrContext) { ctx.AddCost(100) })
	cpu.SetHandler(VecIPI, func(ctx *IntrContext) { ctx.AddCost(10) })
	done := func() {}
	idle := func() {
		cpu.Raise(VecTimer)
		eng.Run()
	}
	preempt := func() {
		cpu.Run(5000, done)
		cpu.Raise(VecTimer)
		cpu.Raise(VecIPI) // pended behind the timer
		eng.Run()
	}
	// Warm up: bind the CPU's callbacks and grow the pended queue and
	// the engine's event storage.
	idle()
	preempt()
	debug.FreeOSMemory()
	if a := testing.AllocsPerRun(100, idle); a != 0 {
		t.Errorf("interrupt on an idle CPU: %.1f allocations, want 0", a)
	}
	debug.FreeOSMemory()
	if a := testing.AllocsPerRun(100, preempt); a != 1 {
		t.Errorf("preempting interrupt: %.1f allocations, want 1 (the PausedRun)", a)
	}

	// IPIs arrive through each destination's bound callback: once the
	// inbound lists have grown, an unchaotic broadcast to every other
	// CPU, across sockets, and a unicast allocate nothing.
	eng2 := sim.NewEngine()
	m2 := New(eng2, model.Default(), Topology{Sockets: 2, CoresPerSocket: 4})
	for _, c := range m2.CPUs {
		c.SetHandler(VecIPI, func(ctx *IntrContext) { ctx.AddCost(10) })
	}
	broadcast := func() {
		m2.CPU(0).BroadcastIPI(VecIPI)
		m2.CPU(5).SendIPI(m2.CPU(1), VecIPI)
		eng2.Run()
	}
	broadcast()
	debug.FreeOSMemory()
	if a := testing.AllocsPerRun(100, broadcast); a != 0 {
		t.Errorf("broadcast IPI to %d CPUs: %.1f allocations, want 0", len(m2.CPUs)-1, a)
	}
}
