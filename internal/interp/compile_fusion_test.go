package interp

import (
	"testing"

	"repro/internal/ir"
)

// findFused returns the pc of the first slot carrying the given fused
// opcode, or -1.
func findFused(cf *cfunc, op int32) int {
	for pc := range cf.code {
		if cf.code[pc].op == op {
			return pc
		}
	}
	return -1
}

// TestFuseEncoding pins the superinstruction slot layout: the fused
// opcode replaces the first constituent's slot, the second
// constituent's operands ride in the spare fields (target/els as
// a2/b2, runCost as imm2, dst2, aux), the folded cost covers both
// constituents, and the slot at pc+1 keeps the original second
// instruction for the step-budget fallback.
func TestFuseEncoding(t *testing.T) {
	m := ir.NewModule("enc")
	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)
	buf := b.Alloc(64)
	c7 := b.Const(7)
	b.Store(buf, 0, c7) // const+store → alu+store
	x := b.Load(buf, 0)
	y := b.Load(buf, 8) // load+load
	_ = y
	b.Ret(x)

	cost := DefaultCosts()
	cf := Compile(m, cost, false).Func("main")
	if cf.fused != 2 {
		t.Fatalf("fused %d pairs, want 2 (alu+store, load+load)", cf.fused)
	}

	pc := findFused(cf, opFusedALUStore)
	if pc < 0 {
		t.Fatal("no opFusedALUStore slot")
	}
	s1, s2 := &cf.code[pc], &cf.code[pc+1]
	if ir.Op(s1.aux) != ir.OpConst || s1.imm != 7 {
		t.Errorf("alu+store: aux=%v imm=%d, want const/7", ir.Op(s1.aux), s1.imm)
	}
	if s1.a2() != s2.a || s1.b2() != s2.b || s1.imm2() != s2.imm {
		t.Errorf("alu+store: a2/b2/imm2 = %d/%d/%d, want store operands %d/%d/%d",
			s1.a2(), s1.b2(), s1.imm2(), s2.a, s2.b, s2.imm)
	}
	if s1.cost != cost.IntALU+cost.Store {
		t.Errorf("alu+store: cost %d, want %d", s1.cost, cost.IntALU+cost.Store)
	}
	if ir.Op(s2.op) != ir.OpStore {
		t.Errorf("alu+store: second slot rewritten to %v; fallback needs it intact", ir.Op(s2.op))
	}

	pc = findFused(cf, opFusedLoadLoad)
	if pc < 0 {
		t.Fatal("no opFusedLoadLoad slot")
	}
	s1, s2 = &cf.code[pc], &cf.code[pc+1]
	if s1.dst2 != s2.dst || s1.a2() != s2.a || s1.imm2() != 8 {
		t.Errorf("load+load: dst2/a2/imm2 = %d/%d/%d, want %d/%d/8",
			s1.dst2, s1.a2(), s1.imm2(), s2.dst, s2.a)
	}
	if s1.cost != 2*cost.Load {
		t.Errorf("load+load: cost %d, want %d", s1.cost, 2*cost.Load)
	}
	if ir.Op(s2.op) != ir.OpLoad {
		t.Errorf("load+load: second slot rewritten to %v", ir.Op(s2.op))
	}
}

// TestFuseEncodingCmpBr pins that a fused compare-and-branch inherits
// the branch's resolved absolute targets and keeps the compare's
// predicate.
func TestFuseEncodingCmpBr(t *testing.T) {
	m := ir.NewModule("encbr")
	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)
	c1 := b.Const(1)
	c2 := b.Const(2)
	cond := b.ICmp(ir.PredLT, c1, c2)
	then := b.Block("then")
	els := b.Block("els")
	b.Br(cond, then, els)
	b.SetBlock(then)
	b.Ret(c1)
	b.SetBlock(els)
	b.Ret(c2)

	cost := DefaultCosts()
	cf := Compile(m, cost, false).Func("main")
	pc := findFused(cf, opFusedICmpBr)
	if pc < 0 {
		t.Fatal("no opFusedICmpBr slot")
	}
	s1, s2 := &cf.code[pc], &cf.code[pc+1]
	if ir.Op(s2.op) != ir.OpBr {
		t.Fatalf("second slot is %v, want intact br", ir.Op(s2.op))
	}
	if s1.target != s2.target || s1.els != s2.els {
		t.Errorf("fused targets %d/%d, branch slot has %d/%d", s1.target, s1.els, s2.target, s2.els)
	}
	if ir.Pred(s1.pred) != ir.PredLT {
		t.Errorf("predicate %v, want lt", ir.Pred(s1.pred))
	}
	if s1.cost != cost.IntALU+cost.Branch {
		t.Errorf("cost %d, want %d", s1.cost, cost.IntALU+cost.Branch)
	}
}

// TestFuseGreedyNonOverlap pins left-to-right greedy matching: three
// consecutive loads form exactly one fused pair, and the third load
// stays a plain dispatch.
func TestFuseGreedyNonOverlap(t *testing.T) {
	m := ir.NewModule("greedy")
	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)
	buf := b.Alloc(64)
	a := b.Load(buf, 0)
	_ = b.Load(buf, 8)
	_ = b.Load(buf, 16)
	b.Ret(a)

	cf := Compile(m, DefaultCosts(), false).Func("main")
	if cf.fused != 1 {
		t.Fatalf("fused %d pairs from three loads, want 1 (greedy non-overlap)", cf.fused)
	}
	plain := 0
	for pc := range cf.code {
		if ir.Op(cf.code[pc].op) == ir.OpLoad && cf.code[pc].cost == DefaultCosts().Load {
			plain++
		}
	}
	// pc+1 of the fused pair keeps an intact load slot (fallback only);
	// the third load is the one normal dispatch still reaches.
	if plain != 2 {
		t.Fatalf("%d un-fused load slots, want 2 (fallback shadow + trailing load)", plain)
	}
}

// TestFuseRespectsRunBatcher pins the selection policy's core rule:
// fusion never breaks up a pure-ALU chain the run batcher already
// dispatches as one unit, but an isolated inline-ALU pair does fuse.
func TestFuseRespectsRunBatcher(t *testing.T) {
	m := ir.NewModule("runs")
	chain := m.NewFunction("chain", 2)
	b := ir.NewBuilder(chain)
	p0, p1 := b.Param(0), b.Param(1)
	x := b.Add(p0, p1)
	y := b.Add(x, p1)
	z := b.Add(y, p1)
	b.Ret(z)

	iso := m.NewFunction("iso", 2)
	b = ir.NewBuilder(iso)
	p0, p1 = b.Param(0), b.Param(1)
	buf := b.Alloc(64)
	b.Store(buf, 0, p0)
	mv := b.Mov(p0)
	s := b.Add(mv, p1)
	b.Store(buf, 8, s)
	b.Ret(s)

	p := Compile(m, DefaultCosts(), false)
	if n := p.FusedPairsIn("chain"); n != 0 {
		t.Errorf("ALU chain fused %d pairs; the run batcher owns it", n)
	}
	if n := p.FusedPairsIn("iso"); n != 1 {
		t.Errorf("isolated mov+add fused %d pairs, want 1", n)
	}
}
