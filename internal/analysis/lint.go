package analysis

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Kind classifies a lint diagnostic.
type Kind string

// Diagnostic kinds.
const (
	KindInvalidIR    Kind = "invalid-ir"
	KindUseBeforeDef Kind = "use-before-def"
	KindDeadStore    Kind = "dead-store"
	KindUseAfterFree Kind = "use-after-free"
	KindDoubleFree   Kind = "double-free"
	KindLeak         Kind = "leak"
	KindUnreachable  Kind = "unreachable-block"
)

// Diag is one structured finding, positioned at an instruction of a
// block (Instr -1 for whole-block findings).
type Diag struct {
	Module string `json:"module,omitempty"`
	Fn     string `json:"fn"`
	Block  string `json:"block,omitempty"`
	Instr  int    `json:"instr"`
	Kind   Kind   `json:"kind"`
	Msg    string `json:"msg"`
}

// String renders the diagnostic as module/fn.block#instr: kind: msg.
func (d Diag) String() string {
	pos := d.Fn
	if d.Module != "" {
		pos = d.Module + "/" + pos
	}
	if d.Block != "" {
		pos += "." + d.Block
		if d.Instr >= 0 {
			pos += fmt.Sprintf("#%d", d.Instr)
		}
	}
	return fmt.Sprintf("%s: %s: %s", pos, d.Kind, d.Msg)
}

// Lint runs the memory-safety linter over every function of m. extern
// names call targets defined outside the module (as in
// ir.VerifyModule). Diagnostics are the static superset of what the
// CARAT runtime would catch dynamically: every guard violation,
// untracked free, or end-of-run leak the interpreter can observe on
// these bugs has a corresponding diagnostic (the differential test
// asserts this inclusion).
func Lint(m *ir.Module, extern map[string]bool) []Diag {
	var out []Diag
	if err := ir.VerifyModule(m, extern); err != nil {
		out = append(out, Diag{Module: m.Name, Fn: "-", Instr: -1,
			Kind: KindInvalidIR, Msg: err.Error()})
		return out
	}
	for _, f := range m.Functions() {
		for _, d := range LintFunc(f) {
			d.Module = m.Name
			out = append(out, d)
		}
	}
	return out
}

// LintFunc lints a single (Verify-valid) function.
func LintFunc(f *ir.Function) []Diag {
	var out []Diag
	info := ir.AnalyzeCFG(f)

	// Unreachable blocks: Verify rejects blocks no edge references, but
	// a dead cycle passes it; the CFG walk exposes both.
	reachable := make(map[*ir.Block]bool, len(info.RPO))
	for _, b := range info.RPO {
		reachable[b] = true
	}
	for _, b := range f.Blocks {
		if !reachable[b] {
			out = append(out, Diag{Fn: f.Name, Block: b.Name, Instr: -1,
				Kind: KindUnreachable,
				Msg:  "block is unreachable from the function entry"})
		}
	}

	out = append(out, lintUseBeforeDef(f, info)...)
	out = append(out, lintDeadStores(f, info)...)
	out = append(out, lintHeap(f, info)...)
	sortDiags(out)
	return out
}

// lintUseBeforeDef flags uses of registers that are not definitely
// assigned — some path from entry reaches the use without writing the
// register (which the interpreter silently reads as zero).
func lintUseBeforeDef(f *ir.Function, info *ir.CFGInfo) []Diag {
	var out []Diag
	res := Solve(info, NewDefiniteAssign(f))
	var buf []ir.Reg
	for _, b := range info.RPO {
		res.Replay(b, func(idx int, in *ir.Instr, facts *BitSet) {
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if !facts.Has(int(u)) {
					out = append(out, Diag{Fn: f.Name, Block: b.Name, Instr: idx,
						Kind: KindUseBeforeDef,
						Msg:  fmt.Sprintf("v%d may be used before definition in %s", u, in.Op)})
					break
				}
			}
		})
	}
	return out
}

// lintDeadStores flags block-local overwritten stores: a store to
// (base, offset) followed in the same block by another store to the
// same location with no intervening read, call, free, or write to the
// base register. Conservative about aliasing — any load or opaque
// operation keeps earlier stores alive.
func lintDeadStores(f *ir.Function, info *ir.CFGInfo) []Diag {
	var out []Diag
	type loc struct {
		base ir.Reg
		imm  int64
	}
	for _, b := range info.RPO {
		pending := make(map[loc]int)
		for idx, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				k := loc{in.A, in.Imm}
				if prev, ok := pending[k]; ok {
					out = append(out, Diag{Fn: f.Name, Block: b.Name, Instr: prev,
						Kind: KindDeadStore,
						Msg: fmt.Sprintf("store to [v%d+%d] is overwritten at #%d before any read",
							in.A, in.Imm, idx)})
				}
				pending[k] = idx
				continue
			case ir.OpLoad, ir.OpCall, ir.OpFree, ir.OpRet,
				ir.OpGuard, ir.OpTrackAlloc, ir.OpTrackFree, ir.OpTrackEsc:
				// Possible readers (or region releases): all earlier
				// stores may be observed.
				pending = make(map[loc]int)
			}
			if d := in.Defs(); d != ir.NoReg {
				for k := range pending { // detvet:ok — deletes only; the surviving set is order-free
					if k.base == d {
						delete(pending, k)
					}
				}
			}
		}
	}
	return out
}

// lintHeap runs the allocation-site analyses and flags use-after-free,
// double-free, and leaks.
func lintHeap(f *ir.Function, info *ir.CFGInfo) []Diag {
	var out []Diag
	rd := NewReachingDefs(f)
	rdRes := Solve(info, rd)
	alias := AnalyzeAlias(f, rd, rdRes)
	if len(alias.Sites) == 0 {
		return nil
	}
	siteName := func(s int) string {
		site := alias.Sites[s]
		return fmt.Sprintf("alloc at %s#%d (v%d)", site.Block.Name, site.Idx, site.Dst)
	}

	mustFreed := Solve(info, NewMustFreed(f, alias))
	for _, b := range info.RPO {
		mustFreed.Replay(b, func(idx int, in *ir.Instr, facts *BitSet) {
			var base ir.Reg
			switch in.Op {
			case ir.OpLoad, ir.OpStore:
				base = in.A
			case ir.OpFree:
				base = in.A
			default:
				return
			}
			s, ok := alias.MustSite(base)
			if !ok || !facts.Has(s) {
				return
			}
			if in.Op == ir.OpFree {
				out = append(out, Diag{Fn: f.Name, Block: b.Name, Instr: idx,
					Kind: KindDoubleFree,
					Msg:  fmt.Sprintf("double free of %s", siteName(s))})
			} else {
				out = append(out, Diag{Fn: f.Name, Block: b.Name, Instr: idx,
					Kind: KindUseAfterFree,
					Msg:  fmt.Sprintf("%s of freed %s", in.Op, siteName(s))})
			}
		})
	}

	// Leaks: a non-escaping allocation still live at a return leaks on
	// the path that reaches it. Report each leaking site once, at the
	// first return that observes it.
	liveUnfreed := Solve(info, NewLiveUnfreed(f, alias))
	leaked := make(map[int]bool)
	for _, b := range info.RPO {
		liveUnfreed.Replay(b, func(idx int, in *ir.Instr, facts *BitSet) {
			if in.Op != ir.OpRet {
				return
			}
			for s := range alias.Sites {
				if leaked[s] || alias.Escaped(s) || !facts.Has(s) {
					continue
				}
				leaked[s] = true
				out = append(out, Diag{Fn: f.Name, Block: b.Name, Instr: idx,
					Kind: KindLeak,
					Msg:  fmt.Sprintf("%s is not freed on a path to this return", siteName(s))})
			}
		})
	}
	return out
}

// sortDiags orders diagnostics by block id, instruction, then kind, so
// lint output is deterministic.
func sortDiags(ds []Diag) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Block != ds[j].Block {
			return ds[i].Block < ds[j].Block
		}
		if ds[i].Instr != ds[j].Instr {
			return ds[i].Instr < ds[j].Instr
		}
		return ds[i].Kind < ds[j].Kind
	})
}
