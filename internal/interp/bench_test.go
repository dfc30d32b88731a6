// Engine benchmarks over the CARAT kernel suite, and the alloc-free
// pin for them. They live in the external test package because the
// suite (internal/workloads) and the optimizer (internal/passes) both
// import interp.
package interp_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/interp"
	"repro/internal/passes"
	"repro/internal/workloads"
)

// kernelLeg selects one measured engine configuration. Fusion is on by
// default in the fast path, so each leg sets NoFusion explicitly: the
// fast and opt legs are the unfused baselines the fused legs are
// compared against.
type kernelLeg struct {
	name      string
	reference bool
	optimize  bool
	fused     bool
}

// kernelLegs are the legs BENCH_interp.json records.
var kernelLegs = []kernelLeg{
	{name: "fast"},
	{name: "reference", reference: true},
	{name: "opt", optimize: true},
	{name: "fused", fused: true},
	{name: "opt_fused", optimize: true, fused: true},
}

// warmKernel builds k for leg and returns a call that runs its entry
// once, failing tb on error. One call is made before returning, so the
// program cache is compiled and later calls time (and count) only the
// run. Stats are reset per call because MaxSteps bounds the cumulative
// step count across Calls on one Interp.
func warmKernel(tb testing.TB, k workloads.IRKernel, leg kernelLeg) func() {
	tb.Helper()
	m := k.Build()
	if leg.optimize {
		if _, err := passes.Optimize(m); err != nil {
			tb.Fatalf("%s/%s: %v", leg.name, k.Name, err)
		}
	}
	ip, err := interp.New(m)
	if err != nil {
		tb.Fatalf("%s/%s: %v", leg.name, k.Name, err)
	}
	ip.NoFusion = !leg.fused
	call := func() {
		ip.Stats = interp.Stats{}
		var err error
		if leg.reference {
			_, err = ip.ReferenceCall(k.Entry)
		} else {
			_, err = ip.Call(k.Entry)
		}
		if err != nil {
			tb.Fatalf("%s/%s: %v", leg.name, k.Name, err)
		}
	}
	call()
	return call
}

// BenchmarkInterpKernel times every engine leg on every CARAT-suite
// kernel, as BenchmarkInterpKernel/<leg>/<kernel>.
func BenchmarkInterpKernel(b *testing.B) {
	for _, leg := range kernelLegs {
		for _, k := range workloads.CARATSuite() {
			b.Run(leg.name+"/"+k.Name, func(b *testing.B) {
				call := warmKernel(b, k, leg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call()
				}
			})
		}
	}
}

// TestKernelsAllocFree pins BenchmarkInterpKernel's 0 allocs/op on the
// fast and fused legs: once compiled, a kernel run allocates nothing.
// It is not parallel: AllocsPerRun counts the whole process's mallocs.
// For the same reason each count starts from a settled runtime. After
// the earlier tests free their heaps, the runtime's background
// scavenger returns that memory to the OS in steps, and between steps
// it sleeps on a timer; arming that timer can grow the current P's
// timer heap, one 16-byte malloc that lands in the count when the
// scavenger runs during the measured call (seen under host load).
// debug.FreeOSMemory returns all free memory at once, so the scavenger
// has no work left to wake for.
func TestKernelsAllocFree(t *testing.T) {
	for _, leg := range kernelLegs {
		if leg.name != "fast" && leg.name != "fused" {
			continue
		}
		for _, k := range workloads.CARATSuite() {
			call := warmKernel(t, k, leg)
			debug.FreeOSMemory()
			if n := testing.AllocsPerRun(1, call); n != 0 {
				t.Errorf("%s/%s: %.2f allocs per run, want 0", leg.name, k.Name, n)
			}
		}
	}
}
