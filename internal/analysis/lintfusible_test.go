package analysis

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/workloads"
)

func TestLintFusibleFindsPatterns(t *testing.T) {
	m := ir.NewModule("fus")
	f := m.NewFunction("main", 0)
	b := ir.NewBuilder(f)
	buf := b.Alloc(64)
	x := b.Load(buf, 0)
	y := b.Load(buf, 8) // load+load
	_ = y
	c := b.Const(3)
	cond := b.ICmp(ir.PredLT, x, c)
	thn := b.Block("t")
	els := b.Block("e")
	b.Br(cond, thn, els) // icmp+br
	b.SetBlock(thn)
	b.Ret(x)
	b.SetBlock(els)
	b.Ret(c)

	ds := LintFusible(m)
	if len(ds) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(ds), ds)
	}
	for _, d := range ds {
		if d.Kind != KindFusiblePair {
			t.Errorf("kind %q, want %q", d.Kind, KindFusiblePair)
		}
		if d.Module != "fus" || d.Fn != "main" {
			t.Errorf("diag not attributed: %+v", d)
		}
	}
	// sortDiags orders by function, block, then instruction index; both
	// pairs are in the entry block, load+load (instr 1) before icmp+br.
	if !strings.Contains(ds[0].Msg, "load then load") || !strings.Contains(ds[0].Msg, "load+load") {
		t.Errorf("diag 0 message %q", ds[0].Msg)
	}
	if !strings.Contains(ds[1].Msg, "icmp then br") || !strings.Contains(ds[1].Msg, "cmp+br") {
		t.Errorf("diag 1 message %q", ds[1].Msg)
	}
	if ds[0].Instr >= ds[1].Instr {
		t.Errorf("diagnostics out of instruction order: %d then %d", ds[0].Instr, ds[1].Instr)
	}
}

// TestLintFusibleLockstepWithCompiler pins the lockstep rule: the
// diagnostic walk shares the fuser's pattern predicates and selection
// policy (ir.EachFusiblePair), so on every kernel the
// diagnostic count equals the superinstruction count the compiler
// actually forms under the default heuristic.
func TestLintFusibleLockstepWithCompiler(t *testing.T) {
	for _, k := range workloads.CARATSuite() {
		m := k.Build()
		n := len(LintFusible(m))
		p := interp.Compile(m, interp.DefaultCosts(), false)
		if n != p.FusedPairs() {
			t.Errorf("%s: %d fusible-pair diagnostics, compiler fused %d pairs",
				k.Name, n, p.FusedPairs())
		}
		if n == 0 {
			t.Errorf("%s: no fusible pairs reported", k.Name)
		}
	}
}

// TestLintOptExcludesFusible pins the -O contract: fusible-pair is an
// engine-opportunity diagnostic, not optimizer debt, so LintOpt (the
// pass-lockstep check that must be silent after StdOptimization) never
// reports it.
func TestLintOptExcludesFusible(t *testing.T) {
	for _, k := range workloads.CARATSuite() {
		for _, d := range LintOpt(k.Build()) {
			if d.Kind == KindFusiblePair {
				t.Fatalf("%s: LintOpt reported %v", k.Name, d)
			}
		}
	}
}
