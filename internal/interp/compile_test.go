package interp

import (
	"testing"

	"repro/internal/ir"
)

func TestCompilePCResolution(t *testing.T) {
	m := sumModule()
	p := Compile(m, DefaultCosts(), false)
	cf := p.funcs["sum"]
	if cf == nil {
		t.Fatal("sum not compiled")
	}
	f := m.Funcs["sum"]
	l := f.Layout()
	// Every branch/jump in the compiled code points at the PC of the
	// block the IR instruction names.
	pc := 0
	for bi, b := range l.Blocks {
		for ii, in := range b.Instrs {
			ci := cf.code[l.Start[bi]+ii]
			switch in.Op {
			case ir.OpJmp:
				want, _ := l.StartOf(in.Target)
				if int(ci.target) != want {
					t.Errorf("jmp at pc %d targets %d, want %d", pc, ci.target, want)
				}
			case ir.OpBr:
				wt, _ := l.StartOf(in.Target)
				we, _ := l.StartOf(in.Else)
				if int(ci.target) != wt || int(ci.els) != we {
					t.Errorf("br at pc %d targets (%d,%d), want (%d,%d)", pc, ci.target, ci.els, wt, we)
				}
			}
			pc++
		}
	}
	if cf.numRegs != f.NumRegs || cf.numParams != f.NumParams {
		t.Errorf("compiled shape %d/%d, want %d/%d", cf.numParams, cf.numRegs, f.NumParams, f.NumRegs)
	}
}

func TestCompileRunAnnotation(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunction("runs", 0)
	b := ir.NewBuilder(f)
	// Block layout: const, const, add (3-op run), store (not runnable),
	// ret. Suffix run lengths should be 3,2,1,0,0.
	c1 := b.Const(1)
	c2 := b.Const(2)
	s := b.Add(c1, c2)
	b.Store(c1, 0, s)
	b.Ret(s)

	cost := DefaultCosts()
	// NoFusion: this test pins the run annotation itself (the default
	// heuristic would fuse the add+store pair and shorten the run).
	p := Compile(m, cost, true)
	cf := p.funcs["runs"]
	wantLen := []int32{3, 2, 1, 0, 0}
	for i, w := range wantLen {
		if cf.code[i].runLen != w {
			t.Errorf("pc %d runLen = %d, want %d", i, cf.code[i].runLen, w)
		}
	}
	// Run cost of the head = 2 consts + 1 add, all IntALU.
	if got, want := cf.code[0].runCost, 3*cost.IntALU; got != want {
		t.Errorf("head runCost = %d, want %d", got, want)
	}
	// Terminators and memory ops carry their folded class cost.
	if cf.code[3].cost != cost.Store || cf.code[4].cost != cost.Ret {
		t.Errorf("folded costs store=%d ret=%d, want %d %d",
			cf.code[3].cost, cf.code[4].cost, cost.Store, cost.Ret)
	}
}

func TestCompileTrapSlot(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunction("falls", 0)
	b := ir.NewBuilder(f)
	b.Const(1) // no terminator: block falls off the end

	ip, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	_, errFast := ip.Call("falls")
	ref, _ := New(m)
	_, errRef := ref.ReferenceCall("falls")
	if errFast == nil || errRef == nil {
		t.Fatalf("fell-off execution succeeded: fast=%v ref=%v", errFast, errRef)
	}
	if errFast.Error() != errRef.Error() {
		t.Fatalf("fell-off diagnostics differ: fast=%q ref=%q", errFast, errRef)
	}
	if ip.Stats != ref.Stats {
		t.Fatalf("fell-off stats differ: fast=%+v ref=%+v", ip.Stats, ref.Stats)
	}
}

func TestRecompileOnMutation(t *testing.T) {
	m := sumModule()
	ip, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Call("sum", 10); err != nil {
		t.Fatal(err)
	}
	prog1 := ip.prog
	if prog1 == nil {
		t.Fatal("no cached program after Call")
	}
	// Unmutated module, same costs: cache hit.
	if _, err := ip.Call("sum", 10); err != nil {
		t.Fatal(err)
	}
	if ip.prog != prog1 {
		t.Fatal("program recompiled without mutation")
	}
	// Structural mutation through the ir API bumps the generation and
	// forces a recompile that sees the new code.
	f := m.NewFunction("two", 0)
	b := ir.NewBuilder(f)
	b.Ret(b.Const(2))
	got, err := ip.Call("two")
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("two() = %d, want 2", got)
	}
	if ip.prog == prog1 {
		t.Fatal("program not recompiled after module mutation")
	}
	// Cost-table change also invalidates.
	prog2 := ip.prog
	ip.Cost.IntALU = 5
	if _, err := ip.Call("two"); err != nil {
		t.Fatal(err)
	}
	if ip.prog == prog2 {
		t.Fatal("program not recompiled after cost change")
	}
}
