package passes

import (
	"testing"

	"repro/internal/ir"
)

// fuzzPipelines enumerates the pass pipelines the differential fuzzer
// compares against pristine execution. Each constructor receives the
// module handle (GlobalDCE needs it). New pipelines must be
// appended at the end: the fuzzer selects by index modulo the table
// length, so inserting in the middle would silently re-point checked-in
// corpus entries at different pipelines.
var fuzzPipelines = []struct {
	name string
	mk   func(m *ir.Module) []Pass
	// fullDiff additionally runs the transformed module on the fused
	// compiled engine AND the tree-walking reference engine under the
	// full CARAT runtime, comparing ret, error, Stats, and the final
	// heap snapshot bit for bit (the superinstruction differential).
	fullDiff bool
}{
	{name: "opt", mk: func(m *ir.Module) []Pass { return []Pass{&ConstFold{}, &GlobalDCE{Mod: m}} }},
	{name: "carat", mk: func(m *ir.Module) []Pass { return []Pass{&CARATInject{}, &CARATHoist{}} }},
	{name: "carat-elim", mk: func(m *ir.Module) []Pass { return []Pass{&CARATInject{}, &CARATHoist{}, &CARATElim{}} }},
	{name: "carat-elim-nohoist", mk: func(m *ir.Module) []Pass { return []Pass{&CARATInject{}, &CARATElim{}} }},
	{name: "timing", mk: func(m *ir.Module) []Pass { return []Pass{&TimingInject{TargetCycles: 500, ChunkLoops: true}} }},
	{name: "poll", mk: func(m *ir.Module) []Pass { return []Pass{&TimingInject{TargetCycles: 800, Op: ir.OpPoll}} }},
	{name: "everything", mk: func(m *ir.Module) []Pass {
		return []Pass{
			&ConstFold{}, &GlobalDCE{Mod: m}, &CARATInject{}, &CARATHoist{},
			&TimingInject{TargetCycles: 700, ChunkLoops: true},
		}
	}},
	// Appended by the analysis-driven optimizer work (keep order).
	{name: "global-opt", mk: StdOptimization},
	{name: "licm", mk: func(m *ir.Module) []Pass { return []Pass{&LICM{}} }},
	{name: "coalesce", mk: func(m *ir.Module) []Pass { return []Pass{&CopyCoalesce{}} }},
	{name: "opt-carat", mk: func(m *ir.Module) []Pass {
		return append(StdOptimization(m),
			&CARATInject{}, &CARATHoist{}, &CARATElim{})
	}},
	// The reverse composition: optimize the already-instrumented module,
	// so guards and tracking calls are roots the optimizer must preserve
	// (this is the carat experiment's "opt" configuration).
	{name: "carat-opt", mk: func(m *ir.Module) []Pass {
		return append([]Pass{&CARATInject{}, &CARATHoist{}, &CARATElim{}},
			StdOptimization(m)...)
	}},
	// Appended by the superinstruction-fusion work (keep order). These
	// pipelines pin the fused engine against the reference engine on
	// full observable state, over the shapes the fuser targets: raw
	// generator output, the optimized form (mov chains coalesced, so
	// different pairs survive to fuse), and the fully CARAT-instrumented
	// form (every access guarded → guard+load / guard+store pairs).
	{name: "fused", mk: func(m *ir.Module) []Pass { return nil }, fullDiff: true},
	{name: "opt-fused", mk: func(m *ir.Module) []Pass { return StdOptimization(m) }, fullDiff: true},
	{name: "fused-carat", mk: func(m *ir.Module) []Pass { return []Pass{&CARATInject{}} }, fullDiff: true},
}

// FuzzDifferentialPipelines is the coverage-guided form of the
// quick.Check differential test above: the fuzzer picks a program seed
// and a pipeline, and the transformed program must produce exactly the
// pristine program's checksum under the full CARAT runtime (with zero
// protection violations, enforced inside runFuzz). The checked-in
// corpus (testdata/fuzz/FuzzDifferentialPipelines) pins one seed per
// pipeline so the differential runs on every plain `go test` too.
func FuzzDifferentialPipelines(f *testing.F) {
	for i := range fuzzPipelines {
		f.Add(uint64(i)*7+1, uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, pipe uint8) {
		p := fuzzPipelines[int(pipe)%len(fuzzPipelines)]
		want := runFuzz(t, genProgram(seed))
		m := genProgram(seed)
		if err := RunAll(m, p.mk(m)...); err != nil {
			t.Fatalf("seed %d pipeline %s: %v", seed, p.name, err)
		}
		if got := runFuzz(t, m); got != want {
			t.Fatalf("seed %d pipeline %s: checksum %d != %d", seed, p.name, got, want)
		}
		if p.fullDiff {
			runFuzzEngineDiff(t, p.name, seed, m)
		}
	})
}
