package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// KindFusiblePair: an adjacent instruction pair the interpreter's
// superinstruction fuser collapses into one dispatch (compare+branch,
// guard+access, load/store adjacencies, isolated ALU chains).
const KindFusiblePair Kind = "fusible-pair"

// LintFusible reports the fusible adjacent pairs of every function of
// m. It is deliberately separate from LintOpt: LintOpt's diagnostics
// are in lockstep with passes.Optimize (a module that has been through
// the pipeline reports none), while fusible pairs are engine
// opportunities that no IR pass removes — an optimized module still
// has them, and the interpreter exploits them at Compile time.
//
// The walk is ir.EachFusiblePair — exactly the static heuristic the
// fusion stage uses — so for any function the diagnostic count equals
// the superinstruction count the compiled engine forms (interp's
// Program.FusedPairs with fusion on). A lockstep test in
// internal/interp pins that equality.
func LintFusible(m *ir.Module) []Diag {
	var out []Diag
	for _, f := range m.Functions() {
		for _, d := range LintFusibleFunc(f) {
			d.Module = m.Name
			out = append(out, d)
		}
	}
	return out
}

// LintFusibleFunc reports the fusible pairs of one function.
func LintFusibleFunc(f *ir.Function) []Diag {
	var out []Diag
	for _, b := range f.Blocks {
		blk := b
		ir.EachFusiblePair(blk, func(i int, k ir.FuseKind) {
			out = append(out, Diag{Fn: f.Name, Block: blk.Name, Instr: i,
				Kind: KindFusiblePair,
				Msg: fmt.Sprintf("%s then %s fuse into a %s superinstruction",
					blk.Instrs[i].Op, blk.Instrs[i+1].Op, k)})
		})
	}
	sortDiags(out)
	return out
}
