package chaos_test

// The metamorphic suite is the harness's acceptance test: for every
// seed, run each cross-layer scenario twice and require byte-identical
// output AND a byte-identical fault trace — the deterministic-replay
// property the whole package exists for. Within a run, every error that
// escapes a scenario must be (or wrap) a typed *chaos.FaultError, no
// scenario may panic, and every registered invariant must hold at every
// injection firing.
//
// Run wide with:
//
//	go test ./internal/chaos -run TestMetamorphic -seeds 100

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/nautilus"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var seedsFlag = flag.Int("seeds", 25, "chaos seeds swept per metamorphic scenario")

// scenario is one fault-injected workload: it builds a fresh stack
// slice, arms a plan, runs, and renders everything observable into a
// deterministic output string. A non-nil error means the scenario saw
// something the harness must fail on (corruption, lost work, an
// untyped failure) — injected faults are *not* errors here, they fold
// into the output.
type scenario struct {
	name string
	run  func(seed uint64) (string, *chaos.Plan, error)
}

var scenarios = []scenario{
	{"buddy-churn", scenarioBuddy},
	{"heartbeat-ipi", scenarioHeartbeat},
	{"nautilus-events", scenarioNautilus},
	{"interp-budget", scenarioInterp},
}

func TestMetamorphic(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < *seedsFlag; s++ {
				seed := uint64(s) + 1
				out1, trace1 := runOnce(t, sc, seed)
				out2, trace2 := runOnce(t, sc, seed)
				if out1 != out2 {
					t.Fatalf("%s seed %d: output diverged between replays\n--- run1\n%s\n--- run2\n%s",
						sc.name, seed, out1, out2)
				}
				if trace1 != trace2 {
					t.Fatalf("%s seed %d: fault trace diverged between replays\n--- run1\n%s--- run2\n%s",
						sc.name, seed, trace1, trace2)
				}
			}
		})
	}
}

// runOnce executes one scenario run, failing the test on panics,
// harness errors, or invariant violations.
func runOnce(t *testing.T, sc scenario, seed uint64) (out, trace string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s seed %d panicked: %v\n%s", sc.name, seed, r, debug.Stack())
		}
	}()
	out, plan, err := sc.run(seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sc.name, seed, err)
	}
	if v := plan.Violations(); len(v) > 0 {
		t.Fatalf("%s seed %d: %d invariant violation(s), first: %v", sc.name, seed, len(v), v[0])
	}
	return out, plan.TraceString()
}

// faultString renders an injected failure for the output transcript,
// returning an error instead if err is not fault-typed.
func faultString(err error) (string, error) {
	if err == nil {
		return "ok", nil
	}
	if fe, ok := chaos.AsFault(err); ok {
		return fe.Error(), nil
	}
	return "", fmt.Errorf("untyped failure escaped: %w", err)
}

// scenarioBuddy churns the intrusive buddy allocator under transient
// fault injection plus hard exhaustion, with the allocator's structural
// invariants checked at every firing. Organic out-of-memory (the zone
// really is full) is tolerated; anything else escaping Alloc/Free is a
// harness failure. ReferenceBuddy runs the same operations in lockstep
// under its own plan from the same seed (identical per-site streams):
// both engines must fail on the same operations with the same fault,
// return the same addresses everywhere else, end with the same stats
// and record the same fault trace.
func scenarioBuddy(seed uint64) (string, *chaos.Plan, error) {
	cfg := chaos.DefaultConfig()
	cfg.AllocFailProb = 0.05
	cfg.AllocBudget = 700
	plan := chaos.NewPlan(seed, cfg)
	refPlan := chaos.NewPlan(seed, cfg)

	b, err := mem.NewBuddy(0, 1<<20, 6)
	if err != nil {
		return "", plan, err
	}
	ref, err := mem.NewReferenceBuddy(0, 1<<20, 6)
	if err != nil {
		return "", plan, err
	}
	b.Inject = plan.AllocInjector("buddy/alloc", mem.ErrOutOfMemory)
	ref.Inject = refPlan.AllocInjector("buddy/alloc", mem.ErrOutOfMemory)
	plan.OnInvariant("buddy-structure", b.CheckInvariants)
	refPlan.OnInvariant("buddy-structure", ref.CheckInvariants)

	rng := sim.NewRNG(seed ^ 0xb0ddd)
	var live []mem.Addr
	injected, organic := 0, 0
	for op := 0; op < 1000; op++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			n := 1 + rng.Uint64()%8192
			a, aerr := b.Alloc(n)
			ra, rerr := ref.Alloc(n)
			if a != ra || fmt.Sprint(aerr) != fmt.Sprint(rerr) {
				return "", plan, fmt.Errorf("op %d: Alloc(%d) fast=(%#x, %v) reference=(%#x, %v)", op, n, a, aerr, ra, rerr)
			}
			if aerr != nil {
				if _, ok := chaos.AsFault(aerr); ok {
					injected++
				} else if errors.Is(aerr, mem.ErrOutOfMemory) {
					organic++
				} else {
					return "", plan, fmt.Errorf("op %d: unexpected alloc error: %w", op, aerr)
				}
				continue
			}
			live = append(live, a)
		} else {
			i := int(rng.Uint64() % uint64(len(live)))
			if ferr, rerr := b.Free(live[i]), ref.Free(live[i]); ferr != nil || rerr != nil {
				return "", plan, fmt.Errorf("op %d: free of live block failed: fast %v, reference %v", op, ferr, rerr)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, a := range live {
		if ferr, rerr := b.Free(a), ref.Free(a); ferr != nil || rerr != nil {
			return "", plan, fmt.Errorf("teardown free failed: fast %v, reference %v", ferr, rerr)
		}
	}
	plan.CheckNow("teardown")
	refPlan.CheckNow("teardown")
	if b.LiveAllocs() != 0 {
		return "", plan, fmt.Errorf("leak: %d live allocs after teardown", b.LiveAllocs())
	}
	if fs, rs := b.Stats(), ref.Stats(); fs != rs {
		return "", plan, fmt.Errorf("stats diverge: fast %+v, reference %+v", fs, rs)
	}
	if ft, rt := plan.TraceString(), refPlan.TraceString(); ft != rt {
		return "", plan, fmt.Errorf("fault traces diverge:\n--- fast\n%s--- reference\n%s", ft, rt)
	}
	if v := refPlan.Violations(); len(v) > 0 {
		return "", plan, fmt.Errorf("reference invariant violation: %v", v[0])
	}
	out := fmt.Sprintf("stats=%+v injected=%d organic=%d largest=%d",
		b.Stats(), injected, organic, b.LargestFree())
	return out, plan, nil
}

// scenarioHeartbeat runs the TPAL-style heartbeat runtime on the
// Nautilus-IPI substrate while the hardware layer drops and delays the
// heartbeat IPIs and jitters the LAPIC timers (the real ArmChaos wiring
// from internal/core). Lost IPIs only skip promotions — the frame
// conservation invariant must hold at every firing and the full
// iteration range must still complete.
func scenarioHeartbeat(seed uint64) (string, *chaos.Plan, error) {
	plan := chaos.NewPlan(seed, chaos.DefaultConfig())
	eng := sim.NewEngine()
	m := machine.New(eng, model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: 4})
	core.ArmChaos(m, plan)

	hcfg := heartbeat.DefaultConfig()
	hcfg.Substrate = heartbeat.SubstrateNautilusIPI
	hcfg.PeriodCycles = 20_000
	hcfg.Seed = seed
	rt := heartbeat.New(m, hcfg)
	plan.OnInvariant("frame-conservation", rt.CheckInvariants)

	const items = 60_000
	rt.Run(items, 40, 32)
	plan.CheckNow("done")

	var done, promos, hits int64
	for w := 0; w < rt.NumWorkers(); w++ {
		st := rt.WorkerStats(w)
		done += st.Items
		promos += st.Promotions
		hits += st.StealHits
	}
	if done != items {
		return "", plan, fmt.Errorf("lost work under IPI faults: %d of %d items done", done, items)
	}
	out := fmt.Sprintf("doneAt=%d items=%d promotions=%d steals=%d ipisDropped=%d",
		rt.DoneAt(), done, promos, hits, dropTotal(m))
	return out, plan, nil
}

func dropTotal(m *machine.Machine) int64 {
	var n int64
	for _, c := range m.CPUs {
		n += c.Stats.IPIsDropped
	}
	return n
}

// scenarioNautilus exercises the Nautilus event path: worker threads
// park on a join-style latch, a signaler broadcasts, and the chaos plan
// defers the idle-CPU dispatches that follow each wake while failing a
// slice of the kernel's state allocations (which the kernel must absorb
// — threads degrade to stateless, nothing corrupts). The no-lost-wakeup
// invariant runs at every firing, and every worker must complete.
func scenarioNautilus(seed uint64) (string, *chaos.Plan, error) {
	cfg := chaos.DefaultConfig()
	cfg.AllocFailProb = 0.25
	plan := chaos.NewPlan(seed, cfg)

	eng := sim.NewEngine()
	m := machine.New(eng, model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: 4})
	k := nautilus.New(m, nautilus.DefaultConfig())
	defer k.Shutdown()

	k.WakeDelay = plan.WakeInjector("nautilus/wake")
	for zi, z := range k.Mem.Zones {
		z.Buddy.Inject = plan.AllocInjector(fmt.Sprintf("nautilus/zone%d", zi), mem.ErrOutOfMemory)
		z.Cache.Inject = plan.CPUAllocInjector(fmt.Sprintf("nautilus/cache%d", zi), mem.ErrOutOfMemory)
		plan.OnInvariant(fmt.Sprintf("zone%d-structure", zi), z.Buddy.CheckInvariants)
	}

	gate := nautilus.NewLatch(k)
	plan.OnInvariant("no-lost-wakeup", gate.CheckNoLostWakeup)

	const workers = 6
	done := 0
	for i := 0; i < workers; i++ {
		i := i
		k.Spawn(1+i%3, nautilus.ClassThread, nautilus.ThreadOpts{}, func(tc *nautilus.ThreadCtx) {
			tc.Compute(int64(500 * (i + 1)))
			tc.Wait(gate)
			tc.Compute(250)
			done++
		})
	}
	k.Spawn(0, nautilus.ClassThread, nautilus.ThreadOpts{}, func(tc *nautilus.ThreadCtx) {
		tc.Compute(30_000)
		tc.Broadcast(gate)
	})
	eng.Run()
	plan.CheckNow("quiesced")

	if done != workers {
		return "", plan, fmt.Errorf("lost wakeup: %d of %d workers finished", done, workers)
	}
	ms := k.MemStats()
	out := fmt.Sprintf("now=%d switches=%d signals=%d wakeups=%d stateAllocs=%d stateFailed=%d cacheAllocs=%d",
		eng.Now(), k.Switches, gate.Signals, gate.Wakeups,
		ms.StateAllocs, ms.StateAllocFailed, ms.Cache.Allocs)
	return out, plan, nil
}

// scenarioInterp runs one CARAT IR kernel on BOTH interpreter engines
// under a chaos-chosen step budget and heap-allocation faults, each
// engine under its own plan derived from the same seed (identical
// per-site streams). The engines must remain bit-identical under
// injection: same return value or same fault at the same point, same
// final heap, same fault trace.
func scenarioInterp(seed uint64) (string, *chaos.Plan, error) {
	suite := workloads.CARATSuite()
	k := suite[int(seed)%len(suite)]
	cfg := chaos.Config{
		AllocFailProb: 0.01,
		MaxSteps:      2_000 + int64(seed%97)*3_000,
	}

	type result struct {
		ret  uint64
		stat interp.Stats
		heap map[mem.Addr]uint64
		errs string
	}
	engine := func(reference bool) (result, *chaos.Plan, error) {
		plan := chaos.NewPlan(seed, cfg)
		ip, err := interp.New(k.Build())
		if err != nil {
			return result{}, plan, err
		}
		ip.MaxSteps = plan.StepBudget(interp.DefaultMaxSteps)
		ip.Hooks.StepLimit = plan.StepFault("interp/steps", interp.ErrStepLimit)
		ip.Heap.Buddy.Inject = plan.AllocInjector("interp/heap", mem.ErrOutOfMemory)
		plan.OnInvariant("heap-structure", ip.Heap.Buddy.CheckInvariants)

		var ret uint64
		if reference {
			ret, err = ip.ReferenceCall(k.Entry)
		} else {
			ret, err = ip.Call(k.Entry)
		}
		es, herr := faultString(err)
		if herr != nil {
			return result{}, plan, herr
		}
		plan.CheckNow("returned")
		return result{ret: ret, stat: ip.Stats, heap: ip.Heap.Snapshot(), errs: es}, plan, nil
	}

	fast, fplan, err := engine(false)
	if err != nil {
		return "", fplan, err
	}
	ref, rplan, err := engine(true)
	if err != nil {
		return "", rplan, err
	}
	if fast.ret != ref.ret || fast.stat != ref.stat || fast.errs != ref.errs ||
		!reflect.DeepEqual(fast.heap, ref.heap) {
		return "", fplan, fmt.Errorf("%s: engines diverged under injection: fast=(ret %d, %q) reference=(ret %d, %q)",
			k.Name, fast.ret, fast.errs, ref.ret, ref.errs)
	}
	if ft, rt := fplan.TraceString(), rplan.TraceString(); ft != rt {
		return "", fplan, fmt.Errorf("%s: fault schedules diverged between engines:\n--- fast\n%s--- reference\n%s",
			k.Name, ft, rt)
	}
	// Also reflect reference-plan violations into the returned plan's
	// verdict by failing here: the harness only inspects one plan.
	if v := rplan.Violations(); len(v) > 0 {
		return "", fplan, fmt.Errorf("%s: reference engine invariant violation: %v", k.Name, v[0])
	}
	out := fmt.Sprintf("kernel=%s ret=%d steps=%d cycles=%d heapwords=%d outcome=%s",
		k.Name, fast.ret, fast.stat.Steps, fast.stat.Cycles, len(fast.heap), fast.errs)
	return out, fplan, nil
}
