package nautilus

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestThreadStateLocality checks that thread state blocks land in the
// spawning CPU's socket-local zone and are reclaimed on exit.
func TestThreadStateLocality(t *testing.T) {
	eng := sim.NewEngine()
	m := machine.New(eng, model.Default(), machine.Topology{Sockets: 2, CoresPerSocket: 2})
	k := New(m, DefaultConfig())
	t.Cleanup(k.Shutdown)

	if len(k.Mem.Zones) != 2 {
		t.Fatalf("zones = %d, want one per socket", len(k.Mem.Zones))
	}
	var threads []*Thread
	for cpu := 0; cpu < 4; cpu++ {
		th := k.Spawn(cpu, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
			tc.Compute(100)
		})
		threads = append(threads, th)
	}
	for cpu, th := range threads {
		if th.StateAddr == 0 {
			t.Fatalf("cpu %d thread got no state block", cpu)
		}
		z := k.Mem.ZoneOf(th.StateAddr)
		if want := m.CPUs[cpu].Socket; z.ID != want {
			t.Fatalf("cpu %d state in zone %d, want socket-local zone %d", cpu, z.ID, want)
		}
	}
	eng.Run()

	st := k.MemStats()
	if st.StateAllocs != 4 || st.StateAllocFailed != 0 {
		t.Fatalf("mem stats = %+v", st)
	}
	// All four threads exited: their state is back in the magazines or
	// the zones. Drain and reconcile.
	live := 0
	for _, z := range k.Mem.Zones {
		if err := z.Cache.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := z.Buddy.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		live += z.Buddy.LiveAllocs()
	}
	if live != 0 {
		t.Fatalf("%d state blocks leak after all threads exited", live)
	}
}

// TestFiberStateSmaller checks the fiber footprint claim: a fiber's
// state block is strictly smaller than a thread's.
func TestFiberStateSmaller(t *testing.T) {
	eng, k := newKernel(t, 1, DefaultConfig())
	th := k.Spawn(0, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {})
	fb := k.Spawn(0, ClassFiber, ThreadOpts{}, func(tc *ThreadCtx) {})
	ts, ok := k.Mem.Zones[0].Buddy.SizeOf(th.StateAddr)
	if !ok {
		t.Fatal("thread state not live")
	}
	fs, ok := k.Mem.Zones[0].Buddy.SizeOf(fb.StateAddr)
	if !ok {
		t.Fatal("fiber state not live")
	}
	if fs >= ts {
		t.Fatalf("fiber state %d >= thread state %d", fs, ts)
	}
	eng.Run()
}
