// Superinstruction-fusion equivalence tests: the fused fast path must
// be bit-identical to the reference engine even when the step budget
// expires inside a fused pair, and fusion must be a pure performance
// transform (NoFusion and default fusion agree with the reference on
// everything observable).
package interp_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// fusedPatternsModule builds one function whose straight-line blocks
// exercise every fusion pattern the compiler recognizes, including
// hand-spliced CARAT-shaped guards (guard then the access it protects,
// same base and offset).
func fusedPatternsModule() *ir.Module {
	m := ir.NewModule("fusedpat")
	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)

	// entry: alu+store twice (const feeding the store), then const+jmp
	// (alu+jmp with a const constituent).
	buf := b.Alloc(128)
	c7 := b.Const(7)
	b.Store(buf, 0, c7)
	c9 := b.Const(9)
	b.Store(buf, 8, c9)
	c0 := b.Const(0)
	loads := b.Block("loads")
	b.Jmp(loads)

	// loads: load+load, then load+alu (the ALU consumes the load).
	b.SetBlock(loads)
	x := b.Load(buf, 0)
	y := b.Load(buf, 8)
	_ = x
	z := b.Load(buf, 0)
	s := b.Add(z, y)
	b.Store(buf, 16, s)
	addr := b.Block("addr")
	b.Jmp(addr)

	// addr: alu+load (the ALU computes the load's base), then alu+store.
	b.SetBlock(addr)
	a1 := b.Add(buf, c0)
	w := b.Load(a1, 0)
	s2 := b.Add(w, c7)
	b.Store(buf, 24, s2)
	stores := b.Block("stores")
	b.Jmp(stores)

	// stores: store+alu (streaming-loop tail shape).
	b.SetBlock(stores)
	b.Store(buf, 32, c7)
	_ = b.Add(c7, c9)
	guards := b.Block("guards")
	b.Jmp(guards)

	// guards: guard+load and guard+store, spliced below.
	b.SetBlock(guards)
	_ = b.Load(buf, 0)
	b.Store(buf, 8, c9)
	chain := b.Block("chain")
	b.Jmp(chain)

	// chain: isolated mov+add (alu+alu), flanked by non-ALU on both
	// sides so the selection policy admits it.
	b.SetBlock(chain)
	mv := b.Mov(c7)
	ad := b.Add(mv, c9)
	b.Store(buf, 40, ad)
	fbr := b.Block("fbr")
	b.Jmp(fbr)

	// fbr: fcmp+br.
	b.SetBlock(fbr)
	fx := b.FConst(1.5)
	fy := b.FConst(2.5)
	cond := b.FCmp(ir.PredLT, fx, fy)
	ft := b.Block("ft")
	ff := b.Block("ff")
	b.Br(cond, ft, ff)
	loop := b.Block("loop")
	b.SetBlock(ft)
	b.Jmp(loop)
	b.SetBlock(ff)
	b.Jmp(loop)

	// loop: icmp+br in the header, store+alu rescued by alu+jmp on the
	// backedge (store; add; mov; jmp → two fused pairs).
	b.SetBlock(loop)
	b.CountingLoop(0, 4, 1, func(i ir.Reg) {
		b.Store(b.Add(buf, b.Mul(i, b.Const(8))), 48, i)
	})
	b.Ret(b.Load(buf, 16))

	// Hand-splice the CARAT guards: guard(base, off) immediately before
	// the access with the same base and offset.
	g := f.Blocks[0]
	for _, blk := range f.Blocks {
		if blk.Name == "guards" {
			g = blk
		}
	}
	var out []*ir.Instr
	for _, in := range g.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			out = append(out, &ir.Instr{Op: ir.OpGuard, Dst: ir.NoReg, A: in.A, B: ir.NoReg, Imm: in.Imm})
		}
		out = append(out, in)
	}
	g.Instrs = out
	return m
}

// TestFusionPatternCoverage pins that fusedPatternsModule really
// contains every pattern, so the budget sweep below exercises each
// fused dispatch arm.
func TestFusionPatternCoverage(t *testing.T) {
	m := fusedPatternsModule()
	got := map[string]int{}
	for _, f := range m.Functions() {
		for _, blk := range f.Blocks {
			ir.EachFusiblePair(blk, func(i int, k ir.FuseKind) {
				got[k.String()]++
			})
		}
	}
	want := []string{
		"cmp+br", "load+alu", "alu+load", "alu+store", "guard+load",
		"guard+store", "alu+alu", "load+load", "store+alu", "alu+jmp",
	}
	for _, k := range want {
		if got[k] == 0 {
			t.Errorf("pattern %s not present in the coverage module (have %v)", k, got)
		}
	}
	p := interp.Compile(m, interp.DefaultCosts(), false)
	total := 0
	for _, n := range got {
		total += n
	}
	if p.FusedPairs() != total {
		t.Errorf("compiled %d fused pairs, EachFusiblePair visits %d", p.FusedPairs(), total)
	}
	if p.FusedPairs() < len(want) {
		t.Fatalf("only %d fused pairs; need at least one per pattern", p.FusedPairs())
	}
}

// TestFusedStepBudgetParity sweeps MaxSteps across the whole execution
// of the all-patterns module, so the budget expires inside (and at
// every boundary of) each kind of fused pair. The fast path must fall
// back to single-stepping the pair's first constituent and report
// ErrStepLimit with exactly the reference's Stats and heap: both
// engines stop at Steps == limit+1 (the over-limit step is counted
// before the check fires).
func TestFusedStepBudgetParity(t *testing.T) {
	probe, err := interp.New(fusedPatternsModule())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.ReferenceCall("main"); err != nil {
		t.Fatal(err)
	}
	total := probe.Stats.Steps

	for limit := int64(1); limit < total; limit++ {
		m := fusedPatternsModule()
		fast, _ := interp.New(m)
		ref, _ := interp.New(m)
		fast.MaxSteps, ref.MaxSteps = limit, limit
		fr, ferr := fast.Call("main")
		rr, rerr := ref.ReferenceCall("main")
		if !errors.Is(ferr, interp.ErrStepLimit) || !errors.Is(rerr, interp.ErrStepLimit) {
			t.Fatalf("limit %d: expected step-limit errors, got fast=%v ref=%v", limit, ferr, rerr)
		}
		if fr != rr || fast.Stats != ref.Stats {
			t.Fatalf("limit %d: divergence\nfast: %+v\nref:  %+v", limit, fast.Stats, ref.Stats)
		}
		if fast.Stats.Steps != limit+1 {
			t.Fatalf("limit %d: stopped after %d steps, want %d", limit, fast.Stats.Steps, limit+1)
		}
		if !reflect.DeepEqual(fast.Heap.Snapshot(), ref.Heap.Snapshot()) {
			t.Fatalf("limit %d: heaps diverge", limit)
		}
	}

	// At exactly the full budget both engines complete.
	m := fusedPatternsModule()
	fast, _ := interp.New(m)
	ref, _ := interp.New(m)
	fast.MaxSteps, ref.MaxSteps = total, total
	fr, ferr := fast.Call("main")
	rr, rerr := ref.ReferenceCall("main")
	if ferr != nil || rerr != nil || fr != rr || fast.Stats != ref.Stats {
		t.Fatalf("full budget: fast=(%d,%v) ref=(%d,%v)", fr, ferr, rr, rerr)
	}
}

// TestKernelStepBudgetAcrossFusedPairs runs the same sweep over a real
// kernel prefix: the fused compiled form of stream-triad must hit the
// limit on exactly the same instruction as the reference for every
// budget in the window (the window covers the init loop and the first
// triad iterations, so limits land inside cmp+br, store+alu, and
// alu+jmp pairs).
func TestKernelStepBudgetAcrossFusedPairs(t *testing.T) {
	k := workloads.CARATSuite()[0]
	if p := interp.Compile(k.Build(), interp.DefaultCosts(), false); p.FusedPairs() == 0 {
		t.Fatal("stream-triad compiles with no fused pairs")
	}
	for limit := int64(1); limit <= 200; limit++ {
		m := k.Build()
		fast, _ := interp.New(m)
		ref, _ := interp.New(m)
		fast.MaxSteps, ref.MaxSteps = limit, limit
		fr, ferr := fast.Call(k.Entry)
		rr, rerr := ref.ReferenceCall(k.Entry)
		if !errors.Is(ferr, interp.ErrStepLimit) || !errors.Is(rerr, interp.ErrStepLimit) {
			t.Fatalf("limit %d: expected step-limit errors, got fast=%v ref=%v", limit, ferr, rerr)
		}
		if fr != rr || fast.Stats != ref.Stats || fast.Stats.Steps != limit+1 {
			t.Fatalf("limit %d: divergence fast=%+v ref=%+v", limit, fast.Stats, ref.Stats)
		}
	}
}

// TestNoFusionEquivalence pins that disabling fusion changes nothing
// observable: NoFusion fast path == reference on the whole kernel
// suite (return, Stats and final heap), and the all-patterns module
// returns the same value fused, unfused, and interpreted.
func TestNoFusionEquivalence(t *testing.T) {
	for _, k := range workloads.CARATSuite() {
		m := k.Build()
		fast, _ := interp.New(m)
		fast.NoFusion = true
		ref, _ := interp.New(m)
		fr, ferr := fast.Call(k.Entry)
		rr, rerr := ref.ReferenceCall(k.Entry)
		if ferr != nil || rerr != nil || fr != rr || fast.Stats != ref.Stats {
			t.Fatalf("%s: NoFusion fast=(%d,%v) ref=(%d,%v)", k.Name, fr, ferr, rr, rerr)
		}
		if !reflect.DeepEqual(fast.Heap.Snapshot(), ref.Heap.Snapshot()) {
			t.Fatalf("%s: NoFusion final heap diverges from the reference", k.Name)
		}
		if fast.Program().FusedPairs() != 0 {
			t.Fatalf("%s: NoFusion program still has %d fused pairs", k.Name, fast.Program().FusedPairs())
		}
	}

	m := fusedPatternsModule()
	fused, _ := interp.New(m)
	unfused, _ := interp.New(m)
	unfused.NoFusion = true
	ref, _ := interp.New(m)
	a, aerr := fused.Call("main")
	b, berr := unfused.Call("main")
	c, cerr := ref.ReferenceCall("main")
	if aerr != nil || berr != nil || cerr != nil || a != b || b != c {
		t.Fatalf("fused=%d unfused=%d ref=%d (errs %v %v %v)", a, b, c, aerr, berr, cerr)
	}
	if fused.Stats != ref.Stats || unfused.Stats != ref.Stats {
		t.Fatalf("stats diverge\nfused:   %+v\nunfused: %+v\nref:     %+v",
			fused.Stats, unfused.Stats, ref.Stats)
	}
	if fused.Program().FusedPairs() == 0 {
		t.Fatal("default heuristic fused nothing in the all-patterns module")
	}
}

// TestFusionTableSelection pins how the fusion selection reaches the
// compiled program: Compile with noFusion forms no pairs, and flipping
// NoFusion on a live interpreter recompiles (the program cache keys on
// the setting) back to the default heuristic's pair count.
func TestFusionTableSelection(t *testing.T) {
	m := fusedPatternsModule()
	full := interp.Compile(m, interp.DefaultCosts(), false)
	none := interp.Compile(m, interp.DefaultCosts(), true)
	if full.FusedPairs() == 0 {
		t.Fatal("default heuristic fused nothing in the all-patterns module")
	}
	if none.FusedPairs() != 0 {
		t.Fatalf("noFusion compile fused %d pairs, want 0", none.FusedPairs())
	}

	ip, _ := interp.New(m)
	ip.NoFusion = true
	ref, _ := interp.New(m)
	fr, ferr := ip.Call("main")
	rr, rerr := ref.ReferenceCall("main")
	if ferr != nil || rerr != nil || fr != rr || ip.Stats != ref.Stats {
		t.Fatalf("unfused program diverges: fast=(%d,%v) ref=(%d,%v)", fr, ferr, rr, rerr)
	}

	p1 := ip.Program()
	ip.NoFusion = false // back to the default heuristic
	if _, err := ip.Call("main"); err != nil {
		t.Fatal(err)
	}
	p2 := ip.Program()
	if p1 == p2 {
		t.Fatal("NoFusion change did not recompile the program")
	}
	if p2.FusedPairs() != full.FusedPairs() {
		t.Fatalf("recompiled program fused %d pairs, want %d", p2.FusedPairs(), full.FusedPairs())
	}
}

// TestLintFusibleLockstep is in internal/analysis's court for the walk
// itself; here we pin the compiled-engine side of the contract: for
// every kernel, the number of fusible-pair diagnostics the shared walk
// reports equals the superinstruction count the compiler forms with
// the default heuristic.
func TestLintFusibleLockstep(t *testing.T) {
	for _, k := range workloads.CARATSuite() {
		m := k.Build()
		visits := 0
		for _, f := range m.Functions() {
			for _, blk := range f.Blocks {
				ir.EachFusiblePair(blk, func(int, ir.FuseKind) { visits++ })
			}
		}
		p := interp.Compile(m, interp.DefaultCosts(), false)
		if p.FusedPairs() != visits {
			t.Errorf("%s: compiler fused %d pairs, shared walk visits %d", k.Name, p.FusedPairs(), visits)
		}
		if p.FusedPairs() == 0 {
			t.Errorf("%s: no fused pairs formed", k.Name)
		}
	}
}
