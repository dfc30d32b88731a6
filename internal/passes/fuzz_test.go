package passes

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/carat"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/sim"
)

// genProgram builds a random but well-formed, terminating, memory-safe
// IR program from a seed: power-of-two arrays indexed through masks,
// bounded (possibly nested) loops, random arithmetic chains, register
// copy chains (CopyCoalesce fodder), calls to pure and impure helpers
// (purity-analysis fodder), the adjacency shapes the superinstruction
// fuser targets (cmp-then-branch diamonds, loads feeding ALU ops,
// explicit guard+load pairs), and a checksum return. It is the input
// source for differential testing of every pass pipeline and of the
// fused engine against the reference engine.
func genProgram(seed uint64) *ir.Module {
	rng := sim.NewRNG(seed)
	m := ir.NewModule("fuzz")

	// Small pure helper functions for the call paths to exercise.
	nHelpers := rng.Intn(3)
	for h := 0; h < nHelpers; h++ {
		hf := m.NewFunction(helperName(h), 2)
		hb := ir.NewBuilder(hf)
		v := hb.Add(hb.Param(0), hb.Param(1))
		switch rng.Intn(3) {
		case 0:
			v = hb.Mul(v, hb.Const(int64(rng.Intn(5)+1)))
		case 1:
			v = hb.Xor(v, hb.Const(int64(rng.Intn(100))))
		case 2:
			v = hb.Sub(v, hb.Param(0))
		}
		hb.Ret(v)
	}

	// An impure helper: allocates scratch, stores/loads through it, and
	// frees it. Calls to it must never be removed (not DCE-safe: it
	// allocates and may fault) even when their results are dead, which
	// exercises the conservative side of the purity summaries under
	// every pipeline.
	{
		hf := m.NewFunction(impureHelper, 1)
		hb := ir.NewBuilder(hf)
		buf := hb.Alloc(8)
		hb.Store(buf, 0, hb.Param(0))
		v := hb.Add(hb.Load(buf, 0), hb.Const(1))
		hb.Free(buf)
		hb.Ret(v)
	}

	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)

	// Arrays: 1-3, power-of-two lengths 64..512.
	type arr struct {
		base ir.Reg
		mask int64
	}
	var arrays []arr
	nArr := 1 + rng.Intn(3)
	for i := 0; i < nArr; i++ {
		n := int64(64 << rng.Intn(4))
		base := b.Alloc(n * 8)
		arrays = append(arrays, arr{base: base, mask: n - 1})
	}
	eight := b.Const(8)

	// Value pool the generator draws operands from.
	pool := []ir.Reg{b.Const(1), b.Const(3), b.Const(17)}
	pick := func() ir.Reg { return pool[rng.Intn(len(pool))] }
	push := func(r ir.Reg) {
		pool = append(pool, r)
		if len(pool) > 24 {
			pool = pool[1:]
		}
	}

	// index computes a safe element address of array a from value v.
	index := func(a arr, v ir.Reg) ir.Reg {
		idx := b.And(v, b.Const(a.mask))
		return b.Add(a.base, b.Mul(idx, eight))
	}

	diamonds := 0 // unique block names for case-10 diamonds
	var emitOps func(depth, count int)
	emitOps = func(depth, count int) {
		for i := 0; i < count; i++ {
			if nHelpers > 0 && rng.Intn(10) == 0 {
				push(b.Call(helperName(rng.Intn(nHelpers)), pick(), pick()))
				continue
			}
			switch rng.Intn(12) {
			case 0:
				push(b.Add(pick(), pick()))
			case 1:
				push(b.Sub(pick(), pick()))
			case 2:
				push(b.Mul(pick(), pick()))
			case 3:
				push(b.Xor(pick(), pick()))
			case 4: // division by a non-zero constant
				push(b.Div(pick(), b.Const(int64(rng.Intn(7)+1))))
			case 5: // store
				a := arrays[rng.Intn(len(arrays))]
				b.Store(index(a, pick()), 0, pick())
			case 6: // load
				a := arrays[rng.Intn(len(arrays))]
				push(b.Load(index(a, pick()), 0))
			case 7: // bounded loop (max nesting 2)
				if depth >= 2 {
					push(b.ICmp(ir.PredLT, pick(), pick()))
					continue
				}
				iters := int64(4 + rng.Intn(30))
				inner := 1 + rng.Intn(4)
				// Registers defined inside the loop body are only usable
				// there: on the (statically possible) zero-trip path they
				// are never written, so leaking them into the outer pool
				// would generate use-before-def programs.
				saved := append([]ir.Reg(nil), pool...)
				b.CountingLoop(0, iters, 1, func(iv ir.Reg) {
					push(iv)
					emitOps(depth+1, inner)
				})
				pool = saved
			case 8: // copy chain (coalescing / copy-propagation fodder)
				v := b.Mov(pick())
				for n := rng.Intn(3); n > 0; n-- {
					v = b.Mov(v)
				}
				push(v)
			case 9: // impure call; result sometimes deliberately dropped
				v := b.Call(impureHelper, pick())
				if rng.Intn(2) == 0 {
					push(v)
				}
			case 10: // cmp-then-branch diamond (fuser's cmp+br shape)
				// Branch-local registers never reach the pool: on the other
				// path they are unwritten, so leaking them would generate
				// use-before-def programs.
				cond := b.ICmp(ir.PredLT, pick(), pick())
				diamonds++
				tag := fmt.Sprintf("%d", diamonds)
				thn := b.Block("dt" + tag)
				els := b.Block("df" + tag)
				join := b.Block("dj" + tag)
				b.Br(cond, thn, els)
				at := arrays[rng.Intn(len(arrays))]
				ae := arrays[rng.Intn(len(arrays))]
				b.SetBlock(thn)
				b.Store(index(at, pick()), 0, pick())
				b.Jmp(join)
				b.SetBlock(els)
				b.Store(index(ae, pick()), 0, pick())
				b.Jmp(join)
				b.SetBlock(join)
			case 11: // load feeding an ALU op, sometimes behind an explicit
				// guard (the fuser's load+alu and guard+load shapes)
				a := arrays[rng.Intn(len(arrays))]
				addr := index(a, pick())
				if rng.Intn(2) == 0 {
					b.Cur.Instrs = append(b.Cur.Instrs, &ir.Instr{
						Op: ir.OpGuard, Dst: ir.NoReg, A: addr, B: ir.NoReg,
					})
				}
				v := b.Load(addr, 0)
				push(b.Add(v, pick()))
			}
		}
	}
	emitOps(0, 10+rng.Intn(15))

	// Checksum: fold the pool and one array.
	sum := b.Const(0)
	for _, r := range pool {
		sum = b.Add(sum, r)
	}
	a := arrays[0]
	b.CountingLoop(0, a.mask+1, 1, func(iv ir.Reg) {
		addr := b.Add(a.base, b.Mul(iv, eight))
		sum2 := b.Add(sum, b.Load(addr, 0))
		b.MovTo(sum, sum2)
	})
	for _, a := range arrays {
		b.Free(a.base)
	}
	b.Ret(sum)
	return m
}

// hasTracking reports whether m carries CARAT allocation tracking
// (OpTrackAlloc): only then is the allocation table populated at run
// time, so only then can guards be expected to pass. The generator
// emits bare guard+load pairs (fusion fodder) without tracking; their
// guards consult an empty table by design.
func hasTracking(m *ir.Module) bool {
	for _, f := range m.Functions() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpTrackAlloc {
					return true
				}
			}
		}
	}
	return false
}

// runFuzz executes a module with the full CARAT runtime attached and
// returns the checksum; any error fails the test, as does a protection
// violation on a module with allocation tracking (in-bounds programs
// must guard clean once the table is populated — untracked modules'
// guards consult an empty table, so their violation count is checked
// by the engine differential instead).
func runFuzz(t *testing.T, m *ir.Module) uint64 {
	t.Helper()
	ip, err := interp.New(m)
	if err != nil {
		t.Fatal(err)
	}
	tb := carat.NewTable()
	ip.Hooks.Guard = func(a mem.Addr) int64 { return tb.Guard(a, false) }
	ip.Hooks.GuardRegion = tb.GuardRegion
	ip.Hooks.TrackAlloc = tb.TrackAlloc
	ip.Hooks.TrackFree = tb.TrackFree
	ip.Hooks.TrackEsc = tb.TrackEscape
	ip.Hooks.YieldCheck = func(int64) int64 { return 6 }
	ip.Hooks.Poll = func() int64 { return 3 }
	got, err := ip.Call("main")
	if err != nil {
		t.Fatalf("execution failed: %v\n%s", err, ir.Format(m.Funcs["main"]))
	}
	if tb.Violations != 0 && hasTracking(m) {
		t.Fatalf("%d protection violations on in-bounds tracked program", tb.Violations)
	}
	return got
}

// runFuzzEngineDiff executes m twice from fresh heaps — once on the
// fused compiled engine, once on the tree-walking reference engine —
// under the full CARAT runtime, and compares every observable: return
// value, error, Stats, protection-violation count, and the final heap
// snapshot. It also requires that fusion actually engaged (every
// generated program ends in a counting checksum loop, whose icmp+br
// header always fuses), so the differential genuinely exercises the
// fused dispatch arms.
func runFuzzEngineDiff(t *testing.T, name string, seed uint64, m *ir.Module) {
	t.Helper()
	run := func(reference bool) (uint64, error, interp.Stats, map[mem.Addr]uint64, int64) {
		ip, err := interp.New(m)
		if err != nil {
			t.Fatal(err)
		}
		tb := carat.NewTable()
		ip.Hooks.Guard = func(a mem.Addr) int64 { return tb.Guard(a, false) }
		ip.Hooks.GuardRegion = tb.GuardRegion
		ip.Hooks.TrackAlloc = tb.TrackAlloc
		ip.Hooks.TrackFree = tb.TrackFree
		ip.Hooks.TrackEsc = tb.TrackEscape
		ip.Hooks.YieldCheck = func(int64) int64 { return 6 }
		ip.Hooks.Poll = func() int64 { return 3 }
		var ret uint64
		var cerr error
		if reference {
			ret, cerr = ip.ReferenceCall("main")
		} else {
			if ip.Program().FusedPairs() == 0 {
				t.Fatalf("seed %d pipeline %s: fused engine formed no superinstructions", seed, name)
			}
			ret, cerr = ip.Call("main")
		}
		return ret, cerr, ip.Stats, ip.Heap.Snapshot(), tb.Violations
	}
	fr, ferr, fstats, fheap, fviol := run(false)
	rr, rerr, rstats, rheap, rviol := run(true)
	if ferr != nil || rerr != nil {
		t.Fatalf("seed %d pipeline %s: fused err=%v reference err=%v", seed, name, ferr, rerr)
	}
	if fr != rr {
		t.Fatalf("seed %d pipeline %s: ret %d != %d", seed, name, fr, rr)
	}
	if fstats != rstats {
		t.Fatalf("seed %d pipeline %s: stats diverge\nfused: %+v\nref:   %+v", seed, name, fstats, rstats)
	}
	if fviol != rviol {
		t.Fatalf("seed %d pipeline %s: violations fused=%d ref=%d", seed, name, fviol, rviol)
	}
	if rviol != 0 && hasTracking(m) {
		t.Fatalf("seed %d pipeline %s: %d violations on tracked program", seed, name, rviol)
	}
	if !reflect.DeepEqual(fheap, rheap) {
		t.Fatalf("seed %d pipeline %s: final heaps diverge", seed, name)
	}
}

// TestDifferentialPassPipelines: for random programs, every pass
// pipeline must preserve the checksum exactly.
func TestDifferentialPassPipelines(t *testing.T) {
	check := func(seed uint64) bool {
		want := runFuzz(t, genProgram(seed))
		// Reuse the fuzzer's pipeline table (fuzz_diff_test.go) so the
		// quick.Check leg and the coverage-guided leg stay in sync.
		for _, p := range fuzzPipelines {
			m := genProgram(seed)
			if err := RunAll(m, p.mk(m)...); err != nil {
				t.Fatalf("seed %d pipeline %s: %v", seed, p.name, err)
			}
			if got := runFuzz(t, m); got != want {
				t.Fatalf("seed %d pipeline %s: checksum %d != %d",
					seed, p.name, got, want)
			}
			if p.fullDiff {
				runFuzzEngineDiff(t, p.name, seed, m)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func helperName(i int) string {
	return string(rune('a'+i)) + "_helper"
}

// impureHelper is the generator's non-DCE-safe callee.
const impureHelper = "scratch_helper"

// TestFuzzProgramsAreValid: the generator only produces Verify-valid
// modules.
func TestFuzzProgramsAreValid(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		m := genProgram(seed)
		if err := ir.VerifyModule(m, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFuzzAnalysesConverge: on random programs (both pristine and
// CARAT-instrumented), every dataflow problem must reach its fixpoint
// well under the solver's safety cap, and the lint layer must stay
// consistent with definite assignment: the generator never produces
// use-before-def, so no such diagnostic may appear.
func TestFuzzAnalysesConverge(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		m := genProgram(seed)
		if seed%2 == 1 {
			if err := RunAll(m, &CARATInject{}, &CARATHoist{}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for _, f := range m.Functions() {
			info := ir.AnalyzeCFG(f)
			rd := analysis.NewReachingDefs(f)
			rdRes := analysis.Solve(info, rd)
			alias := analysis.AnalyzeAlias(f, rd, rdRes)
			for name, p := range map[string]analysis.Problem{
				"reaching":    rd,
				"liveness":    analysis.NewLiveness(f),
				"defassign":   analysis.NewDefiniteAssign(f),
				"avail":       analysis.NewAvailFacts(f, alias),
				"mustfreed":   analysis.NewMustFreed(f, alias),
				"liveheap":    analysis.NewLiveUnfreed(f, alias),
				"availcopies": analysis.NewAvailCopies(f),
			} {
				res := analysis.Solve(info, p)
				if !res.Converged {
					t.Fatalf("seed %d %s/%s: no convergence", seed, f.Name, name)
				}
				if res.Rounds > len(info.RPO)+2 {
					t.Fatalf("seed %d %s/%s: %d rounds for %d blocks",
						seed, f.Name, name, res.Rounds, len(info.RPO))
				}
			}
			for _, d := range analysis.LintFunc(f) {
				if d.Kind == analysis.KindUseBeforeDef {
					t.Fatalf("seed %d: spurious %v", seed, d)
				}
			}
		}
	}
}

// TestFuzzElimKeepsModulesValid: inject+hoist+elim on random programs
// must leave Verify-valid modules with a statically smaller (or equal)
// guard count, and elimination must be deterministic.
func TestFuzzElimKeepsModulesValid(t *testing.T) {
	countOps := func(m *ir.Module, op ir.Op) int {
		n := 0
		for _, f := range m.Functions() {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == op {
						n++
					}
				}
			}
		}
		return n
	}
	for seed := uint64(0); seed < 20; seed++ {
		hoisted := genProgram(seed)
		if err := RunAll(hoisted, &CARATInject{}, &CARATHoist{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		run := func() (*ir.Module, *CARATElim) {
			m := genProgram(seed)
			e := &CARATElim{}
			if err := RunAll(m, &CARATInject{}, &CARATHoist{}, e); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return m, e
		}
		m1, e1 := run()
		if err := ir.VerifyModule(m1, nil); err != nil {
			t.Fatalf("seed %d: module invalid after elim: %v", seed, err)
		}
		if g := countOps(m1, ir.OpGuard); g > countOps(hoisted, ir.OpGuard) {
			t.Fatalf("seed %d: elim grew the static guard count", seed)
		}
		m2, e2 := run()
		if e1.GuardsRemoved != e2.GuardsRemoved || e1.EscapesRemoved != e2.EscapesRemoved {
			t.Fatalf("seed %d: elimination not deterministic (%d/%d vs %d/%d)",
				seed, e1.GuardsRemoved, e1.EscapesRemoved, e2.GuardsRemoved, e2.EscapesRemoved)
		}
		if ir.Format(m1.Funcs["main"]) != ir.Format(m2.Funcs["main"]) {
			t.Fatalf("seed %d: eliminated IR differs between runs", seed)
		}
	}
}
