package analysis

import "repro/internal/ir"

// SideEffectFree reports whether an opcode's only effect is writing its
// destination register: no heap traffic, no runtime-table updates, no
// hook dispatch, and no fault it can raise. Div/Rem are excluded (they
// fault on a zero divisor), as are loads (memory-model hooks observe
// every access).
func SideEffectFree(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpFConst, ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpICmp, ir.OpFCmp:
		return true
	}
	return false
}

// Speculatable reports whether an instruction with this opcode may be
// executed on paths where the original program would not have run it.
// For this IR it coincides with SideEffectFree: those ops cannot fault
// (FDiv follows IEEE semantics, integer shifts mask their amount), so
// the only trace of a speculative execution is the destination value.
func Speculatable(op ir.Op) bool { return SideEffectFree(op) }

// FnSummary is the per-function effect summary the interprocedural
// purity analysis computes.
type FnSummary struct {
	// Pure: the function's only effect is computing its return value —
	// no heap reads or writes, no allocation, no CARAT/timing/poll
	// intrinsics, no extern calls, and only calls to Pure functions.
	Pure bool
	// MayFault: some execution may abort with a runtime fault (integer
	// division or modulo by zero, allocation failure, a free of a bad
	// address, an extern error, or a callee that may fault).
	MayFault bool
	// Bounded: every execution terminates without consuming unbounded
	// steps — no loops in the CFG, no (possibly mutual) recursion, and
	// only calls to Bounded functions. Unlike Pure/MayFault this is
	// proven pessimistically, so call cycles are never Bounded.
	Bounded bool

	// Effect detail (refinements of !Pure).
	ReadsHeap, WritesHeap, Allocates bool
	Intrinsics                       bool // CARAT guards/tracking, yield checks, polls
	CallsExtern                      bool
}

// DCESafe reports whether a call to this function can be deleted when
// its result is unused: the call must be pure, unable to fault, and
// certain to terminate. (Step/depth budget exhaustion is treated as a
// resource limit, not a preserved effect — the same stance the timing
// pass already takes toward instruction counts.)
func (s FnSummary) DCESafe() bool { return s.Pure && !s.MayFault && s.Bounded }

// Purity holds the module-wide summaries.
type Purity struct {
	Fns map[string]FnSummary
}

// Summary returns the summary for a function; unknown (extern) names
// report fully conservative facts.
func (p *Purity) Summary(name string) FnSummary {
	if s, ok := p.Fns[name]; ok {
		return s
	}
	return FnSummary{Pure: false, MayFault: true, Bounded: false, CallsExtern: true}
}

// AnalyzePurity computes per-function effect summaries over m's call
// graph. Pure and !MayFault are optimistic fixpoints (assume the best,
// demote until stable — so self- and mutually-recursive functions built
// only from side-effect-free ops remain pure), while Bounded is a
// pessimistic fixpoint (assume the worst, promote until stable — so
// call cycles and functions containing loops are never Bounded).
func AnalyzePurity(m *ir.Module) *Purity {
	p := &Purity{Fns: make(map[string]FnSummary)}
	fns := m.Functions()

	// Local facts that do not depend on callees.
	type local struct {
		summary  FnSummary
		hasLoops bool
		callees  []string
	}
	locals := make(map[string]*local, len(fns))
	for _, f := range fns {
		lc := &local{summary: FnSummary{Pure: true, MayFault: false, Bounded: false}}
		info := ir.AnalyzeCFG(f)
		lc.hasLoops = len(info.Loops) > 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpDiv, ir.OpRem:
					lc.summary.MayFault = true
				case ir.OpLoad:
					lc.summary.Pure = false
					lc.summary.ReadsHeap = true
				case ir.OpStore:
					lc.summary.Pure = false
					lc.summary.WritesHeap = true
				case ir.OpAlloc:
					lc.summary.Pure = false
					lc.summary.Allocates = true
					lc.summary.MayFault = true // out-of-memory
				case ir.OpFree:
					lc.summary.Pure = false
					lc.summary.WritesHeap = true
					lc.summary.MayFault = true // bad free faults
				case ir.OpGuard, ir.OpTrackAlloc, ir.OpTrackFree, ir.OpTrackEsc,
					ir.OpYieldCheck, ir.OpPoll:
					lc.summary.Pure = false
					lc.summary.Intrinsics = true
				case ir.OpCall:
					lc.callees = append(lc.callees, in.Callee)
				}
			}
		}
		locals[f.Name] = lc
		p.Fns[f.Name] = lc.summary
	}

	// Optimistic demotion for Pure/MayFault and effect detail.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			s := p.Fns[f.Name]
			for _, callee := range locals[f.Name].callees {
				cs := p.Summary(callee)
				merged := s
				merged.Pure = s.Pure && cs.Pure
				merged.MayFault = s.MayFault || cs.MayFault
				merged.ReadsHeap = s.ReadsHeap || cs.ReadsHeap
				merged.WritesHeap = s.WritesHeap || cs.WritesHeap
				merged.Allocates = s.Allocates || cs.Allocates
				merged.Intrinsics = s.Intrinsics || cs.Intrinsics
				merged.CallsExtern = s.CallsExtern || cs.CallsExtern
				if _, defined := p.Fns[callee]; !defined {
					merged.CallsExtern = true
				}
				if merged != s {
					s = merged
					changed = true
				}
			}
			p.Fns[f.Name] = s
		}
	}

	// Pessimistic promotion for Bounded: a function is Bounded once it
	// has no loops and every callee is already proven Bounded. Cycles in
	// the call graph never satisfy the premise, so recursion — however
	// indirect — stays unbounded.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			s := p.Fns[f.Name]
			if s.Bounded || locals[f.Name].hasLoops {
				continue
			}
			ok := true
			for _, callee := range locals[f.Name].callees {
				if !p.Summary(callee).Bounded {
					ok = false
					break
				}
			}
			if ok {
				s.Bounded = true
				p.Fns[f.Name] = s
				changed = true
			}
		}
	}
	return p
}
