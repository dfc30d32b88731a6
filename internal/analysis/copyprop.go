package analysis

import "repro/internal/ir"

// Copy is one static copy instruction dst <- src (an OpMov).
type Copy struct {
	Block    *ir.Block
	Idx      int
	Dst, Src ir.Reg
}

// AvailCopies is copy propagation as a forward must-analysis on the
// Solve framework: fact i holds at a program point when copy i has
// executed on every path reaching the point and neither its source nor
// its destination has been redefined since — so regs[Dst] == regs[Src]
// is guaranteed there, and a use of Dst can be rewritten to Src.
type AvailCopies struct {
	F      *ir.Function
	Copies []Copy

	siteID map[*ir.Block]map[int]int
	// byReg lists the copies mentioning a register on either side (a
	// redefinition of either side invalidates the equality).
	byReg map[ir.Reg][]int
	// byDst lists the copies writing a register. At most one of them
	// can be available at any point (a later copy to the same register
	// kills the earlier ones), so lookup is unambiguous.
	byDst map[ir.Reg][]int
}

// NewAvailCopies scans f and builds the copy universe. Self-copies
// (mov r <- r) carry no information and get no fact.
func NewAvailCopies(f *ir.Function) *AvailCopies {
	ac := &AvailCopies{
		F:      f,
		siteID: make(map[*ir.Block]map[int]int),
		byReg:  make(map[ir.Reg][]int),
		byDst:  make(map[ir.Reg][]int),
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpMov || in.Dst == in.A {
				continue
			}
			id := len(ac.Copies)
			ac.Copies = append(ac.Copies, Copy{Block: b, Idx: i, Dst: in.Dst, Src: in.A})
			if ac.siteID[b] == nil {
				ac.siteID[b] = make(map[int]int)
			}
			ac.siteID[b][i] = id
			ac.byReg[in.Dst] = append(ac.byReg[in.Dst], id)
			ac.byReg[in.A] = append(ac.byReg[in.A], id)
			ac.byDst[in.Dst] = append(ac.byDst[in.Dst], id)
		}
	}
	return ac
}

// Direction implements Problem.
func (ac *AvailCopies) Direction() Direction { return Forward }

// Meet implements Problem: a copy must hold on every incoming path.
func (ac *AvailCopies) Meet() Meet { return Intersect }

// NumFacts implements Problem.
func (ac *AvailCopies) NumFacts() int { return len(ac.Copies) }

// Boundary implements Problem: no copies hold at entry.
func (ac *AvailCopies) Boundary() *BitSet { return NewBitSet(len(ac.Copies)) }

// Transfer implements Problem: a definition of r kills every copy
// mentioning r; a (non-self) mov then generates its own fact.
func (ac *AvailCopies) Transfer(b *ir.Block, idx int, in *ir.Instr, facts *BitSet) {
	d := in.Defs()
	if d == ir.NoReg {
		return
	}
	for _, id := range ac.byReg[d] {
		facts.Clear(id)
	}
	if in.Op == ir.OpMov && in.Dst != in.A {
		facts.Set(ac.siteID[b][idx])
	}
}

// SourceOf returns the register r is currently a copy of, given the
// facts at a point: the source of the (unique) available copy writing
// r. ok is false when no copy of r is available.
func (ac *AvailCopies) SourceOf(r ir.Reg, facts *BitSet) (ir.Reg, bool) {
	for _, id := range ac.byDst[r] {
		if facts.Has(id) {
			return ac.Copies[id].Src, true
		}
	}
	return r, false
}

// Resolve chases copy chains to the representative source: if r <- s
// and s <- t are both available, a use of r can read t directly. The
// chase is bounded by the register count (availability cannot form a
// cycle — generating r <- s first kills every fact mentioning r — but
// the bound keeps a malformed lattice from hanging).
func (ac *AvailCopies) Resolve(r ir.Reg, facts *BitSet) ir.Reg {
	for i := 0; i < ac.F.NumRegs; i++ {
		src, ok := ac.SourceOf(r, facts)
		if !ok {
			return r
		}
		r = src
	}
	return r
}

// IsRedundant reports whether a mov is a no-op at a point with the
// given facts: its two sides already provably hold the same value.
// Available copies form a forest (each register has at most one
// available copy writing it), so two registers are provably equal
// exactly when chasing their chains reaches the same representative.
func (ac *AvailCopies) IsRedundant(in *ir.Instr, facts *BitSet) bool {
	if in.Op != ir.OpMov {
		return false
	}
	return in.Dst == in.A || ac.Resolve(in.Dst, facts) == ac.Resolve(in.A, facts)
}

// RedundantCopies returns the copies that are no-ops at their own
// program point — self-copies, and movs whose (dst, src) equality
// already holds on every incoming path. These are precisely the movs
// the CopyCoalesce pass deletes outright, and what the optimizer-
// opportunity linter reports.
func RedundantCopies(f *ir.Function, info *ir.CFGInfo) []Copy {
	ac := NewAvailCopies(f)
	res := Solve(info, ac)
	var out []Copy
	for _, b := range info.RPO {
		res.Replay(b, func(idx int, in *ir.Instr, facts *BitSet) {
			if ac.IsRedundant(in, facts) {
				out = append(out, Copy{Block: b, Idx: idx, Dst: in.Dst, Src: in.A})
			}
		})
	}
	return out
}
