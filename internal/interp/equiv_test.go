// Equivalence tests between the compiled fast path and the reference
// tree-walking engine. These live in an external test package so they
// can drive the real kernel suite (internal/workloads imports interp).
package interp_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/workloads"
)

// runBoth executes entry on two fresh interpreters — fast path (fused
// unless noFusion) and reference — and requires identical results,
// Stats, and final heaps.
func runBoth(t *testing.T, m *ir.Module, noFusion bool, entry string, args ...uint64) (uint64, error) {
	t.Helper()
	fast, err := interp.New(m)
	if err != nil {
		t.Fatal(err)
	}
	fast.NoFusion = noFusion
	ref, err := interp.New(m)
	if err != nil {
		t.Fatal(err)
	}
	fr, ferr := fast.Call(entry, args...)
	rr, rerr := ref.ReferenceCall(entry, args...)
	if fr != rr {
		t.Fatalf("%s: fast ret %d, reference ret %d", entry, fr, rr)
	}
	if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
		t.Fatalf("%s: fast err %v, reference err %v", entry, ferr, rerr)
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("%s: stats diverge\nfast: %+v\nref:  %+v", entry, fast.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(fast.Heap.Snapshot(), ref.Heap.Snapshot()) {
		t.Fatalf("%s: final heaps diverge", entry)
	}
	return fr, ferr
}

// TestFastMatchesReferenceOnKernels runs every CARAT kernel, as built
// and after the standard optimization pipeline, on the fused and the
// unfused fast path against the reference engine. The optimized module
// must also keep the pristine checksum.
func TestFastMatchesReferenceOnKernels(t *testing.T) {
	for _, k := range workloads.CARATSuite() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			got, err := runBoth(t, k.Build(), false, k.Entry)
			if err != nil {
				t.Fatal(err)
			}
			if k.Want != 0 && got != k.Want {
				t.Fatalf("checksum = %d, want %d", got, k.Want)
			}
			m := k.Build()
			if _, err := passes.Optimize(m); err != nil {
				t.Fatal(err)
			}
			for _, noFusion := range []bool{false, true} {
				opt, err := runBoth(t, m, noFusion, k.Entry)
				if err != nil {
					t.Fatalf("optimized, NoFusion=%v: %v", noFusion, err)
				}
				if opt != got {
					t.Fatalf("optimized, NoFusion=%v: checksum %d, unoptimized %d", noFusion, opt, got)
				}
			}
		})
	}
}

func TestFastStepLimitParity(t *testing.T) {
	// Sweep MaxSteps across a window so the limit fires at every point
	// of a batched ALU run, in the loop header, and mid-terminator —
	// the fast path must fall back to single stepping and report
	// ErrStepLimit with exactly the reference's Stats every time.
	k := workloads.CARATSuite()[0] // stream-triad: dense batched body
	for limit := int64(1); limit <= 160; limit++ {
		m := k.Build()
		fast, _ := interp.New(m)
		ref, _ := interp.New(m)
		fast.MaxSteps, ref.MaxSteps = limit, limit
		fr, ferr := fast.Call(k.Entry)
		rr, rerr := ref.ReferenceCall(k.Entry)
		if !errors.Is(ferr, interp.ErrStepLimit) || !errors.Is(rerr, interp.ErrStepLimit) {
			t.Fatalf("limit %d: expected step-limit errors, got fast=%v ref=%v", limit, ferr, rerr)
		}
		if fr != rr || fast.Stats != ref.Stats {
			t.Fatalf("limit %d: divergence fast=(%d,%+v) ref=(%d,%+v)", limit, fr, fast.Stats, rr, ref.Stats)
		}
		// The over-limit step is counted before the check fires, so
		// both engines end at exactly limit+1.
		if fast.Stats.Steps != limit+1 {
			t.Fatalf("limit %d: stopped after %d steps", limit, fast.Stats.Steps)
		}
	}
}

func TestZeroValueLimitsUseDefaults(t *testing.T) {
	// An Interp literal that never mentions MaxSteps/MaxDepth gets the
	// package defaults instead of "no steps allowed".
	m := workloads.CARATSuite()[0].Build()
	h, err := interp.NewHeap(0x10000, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	ip := &interp.Interp{Mod: m, Heap: h, Cost: interp.DefaultCosts()}
	if _, err := ip.Call(workloads.CARATSuite()[0].Entry); err != nil {
		t.Fatalf("zero-value limits rejected execution: %v", err)
	}

	// Depth default: a recursion 300 deep must exceed DefaultMaxDepth.
	rm := ir.NewModule("r")
	f := rm.NewFunction("down", 1)
	b := ir.NewBuilder(f)
	n := b.Param(0)
	zero := b.Const(0)
	one := b.Const(1)
	base := b.Block("base")
	rec := b.Block("rec")
	b.Br(b.ICmp(ir.PredLE, n, zero), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	b.Ret(b.Call("down", b.Sub(n, one)))

	h2, _ := interp.NewHeap(0x10000, 1<<20)
	rip := &interp.Interp{Mod: rm, Heap: h2, Cost: interp.DefaultCosts()}
	if _, err := rip.Call("down", 300); !errors.Is(err, interp.ErrDepth) {
		t.Fatalf("default depth limit not applied: %v", err)
	}
	h3, _ := interp.NewHeap(0x10000, 1<<20)
	rip2 := &interp.Interp{Mod: rm, Heap: h3, Cost: interp.DefaultCosts()}
	if got, err := rip2.Call("down", 100); err != nil || got != 0 {
		t.Fatalf("recursion under default depth failed: %d, %v", got, err)
	}
}

func TestAbortHookRoutesToReference(t *testing.T) {
	// With Abort set, execution stops at the exact instruction the hook
	// first reports an error after — per-instruction polling semantics.
	m := workloads.CARATSuite()[0].Build()
	ip, err := interp.New(m)
	if err != nil {
		t.Fatal(err)
	}
	bomb := errors.New("teardown")
	polls := 0
	ip.Hooks.Abort = func() error {
		polls++
		if polls >= 50 {
			return bomb
		}
		return nil
	}
	_, callErr := ip.Call(workloads.CARATSuite()[0].Entry)
	if !errors.Is(callErr, bomb) {
		t.Fatalf("abort error not propagated: %v", callErr)
	}
	if polls != 50 {
		t.Fatalf("abort polled %d times, want 50 (per instruction)", polls)
	}
	if ip.Stats.Steps != 50 {
		t.Fatalf("steps = %d, want 50 (one poll per step)", ip.Stats.Steps)
	}
}

func TestExternParity(t *testing.T) {
	m := ir.NewModule("x")
	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)
	a := b.Const(5)
	c := b.Call("host_double", a)
	b.Ret(c)

	mk := func() *interp.Interp {
		ip, err := interp.New(m)
		if err != nil {
			t.Fatal(err)
		}
		ip.Hooks.Extern = func(name string, args []uint64) (uint64, int64, error) {
			if name != "host_double" || len(args) != 1 {
				t.Fatalf("extern got %s(%v)", name, args)
			}
			return args[0] * 2, 17, nil
		}
		return ip
	}
	fast, ref := mk(), mk()
	fr, ferr := fast.Call("main")
	rr, rerr := ref.ReferenceCall("main")
	if ferr != nil || rerr != nil || fr != 10 || rr != 10 {
		t.Fatalf("extern call: fast=(%d,%v) ref=(%d,%v)", fr, ferr, rr, rerr)
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("extern stats diverge\nfast: %+v\nref:  %+v", fast.Stats, ref.Stats)
	}

	// Undefined function without an extern hook: identical error text.
	m2 := ir.NewModule("u")
	f2 := m2.NewFunction("main", 0)
	b2 := ir.NewBuilder(f2)
	b2.Ret(b2.Call("missing"))
	fu, _ := interp.New(m2)
	ru, _ := interp.New(m2)
	_, fe := fu.Call("main")
	_, re := ru.ReferenceCall("main")
	if fe == nil || re == nil || fe.Error() != re.Error() || !errors.Is(fe, interp.ErrUndefined) {
		t.Fatalf("undefined-call errors differ: fast=%v ref=%v", fe, re)
	}
	if fu.Stats != ru.Stats {
		t.Fatalf("undefined-call stats diverge\nfast: %+v\nref:  %+v", fu.Stats, ru.Stats)
	}
}

func TestPooledFramesSurviveDeepCalls(t *testing.T) {
	// Fibonacci exercises re-entrant frames at many depths with live
	// registers across nested calls — a frame pool that clobbered or
	// failed to zero frames would corrupt the result.
	m := ir.NewModule("fib")
	f := m.NewFunction("fib", 1)
	b := ir.NewBuilder(f)
	n := b.Param(0)
	two := b.Const(2)
	one := b.Const(1)
	base := b.Block("base")
	rec := b.Block("rec")
	b.Br(b.ICmp(ir.PredLT, n, two), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	x := b.Call("fib", b.Sub(n, one))
	y := b.Call("fib", b.Sub(n, two))
	b.Ret(b.Add(x, y))

	got, err := runBoth(t, m, false, "fib", 18)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2584 {
		t.Fatalf("fib(18) = %d, want 2584", got)
	}
}
