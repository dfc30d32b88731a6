package analysis

import "repro/internal/ir"

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

// DefSite is one static definition of a register: an instruction that
// writes Reg, or a function parameter (Block nil, Idx -1).
type DefSite struct {
	Block *ir.Block
	Idx   int
	Reg   ir.Reg
}

// ReachingDefs is the classic forward may-analysis: which definition
// sites may supply a register's value at a program point.
type ReachingDefs struct {
	F     *ir.Function
	Sites []DefSite

	siteID map[*ir.Block]map[int]int
	byReg  map[ir.Reg][]int
	params []int
}

// NewReachingDefs scans f and builds the problem's fact universe.
func NewReachingDefs(f *ir.Function) *ReachingDefs {
	rd := &ReachingDefs{
		F:      f,
		siteID: make(map[*ir.Block]map[int]int),
		byReg:  make(map[ir.Reg][]int),
	}
	add := func(s DefSite) int {
		id := len(rd.Sites)
		rd.Sites = append(rd.Sites, s)
		rd.byReg[s.Reg] = append(rd.byReg[s.Reg], id)
		return id
	}
	for i := 0; i < f.NumParams; i++ {
		rd.params = append(rd.params, add(DefSite{Block: nil, Idx: -1, Reg: ir.Reg(i)}))
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if d := in.Defs(); d != ir.NoReg {
				if rd.siteID[b] == nil {
					rd.siteID[b] = make(map[int]int)
				}
				rd.siteID[b][i] = add(DefSite{Block: b, Idx: i, Reg: d})
			}
		}
	}
	return rd
}

// Direction implements Problem.
func (rd *ReachingDefs) Direction() Direction { return Forward }

// Meet implements Problem.
func (rd *ReachingDefs) Meet() Meet { return Union }

// NumFacts implements Problem.
func (rd *ReachingDefs) NumFacts() int { return len(rd.Sites) }

// Boundary implements Problem: at entry, only parameters are defined.
func (rd *ReachingDefs) Boundary() *BitSet {
	s := NewBitSet(len(rd.Sites))
	for _, id := range rd.params {
		s.Set(id)
	}
	return s
}

// Transfer implements Problem: a definition kills every other def site
// of the same register and generates its own.
func (rd *ReachingDefs) Transfer(b *ir.Block, idx int, in *ir.Instr, facts *BitSet) {
	d := in.Defs()
	if d == ir.NoReg {
		return
	}
	for _, id := range rd.byReg[d] {
		facts.Clear(id)
	}
	facts.Set(rd.siteID[b][idx])
}

// DefsOf returns the fact ids of every definition site of r (including
// the parameter pseudo-site when r is a parameter).
func (rd *ReachingDefs) DefsOf(r ir.Reg) []int { return rd.byReg[r] }

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

// Liveness is the classic backward may-analysis over registers: a
// register is live when some path to a use exists with no intervening
// redefinition.
type Liveness struct {
	F   *ir.Function
	buf []ir.Reg
}

// NewLiveness builds the liveness problem for f.
func NewLiveness(f *ir.Function) *Liveness { return &Liveness{F: f} }

// Direction implements Problem.
func (lv *Liveness) Direction() Direction { return Backward }

// Meet implements Problem.
func (lv *Liveness) Meet() Meet { return Union }

// NumFacts implements Problem: one fact per virtual register.
func (lv *Liveness) NumFacts() int { return lv.F.NumRegs }

// Boundary implements Problem: nothing is live after a return.
func (lv *Liveness) Boundary() *BitSet { return NewBitSet(lv.F.NumRegs) }

// Transfer implements Problem (applied in reverse instruction order):
// kill the definition, then generate the uses.
func (lv *Liveness) Transfer(_ *ir.Block, _ int, in *ir.Instr, facts *BitSet) {
	if d := in.Defs(); d != ir.NoReg {
		facts.Clear(int(d))
	}
	lv.buf = in.Uses(lv.buf[:0])
	for _, u := range lv.buf {
		facts.Set(int(u))
	}
}

// ---------------------------------------------------------------------
// Definite assignment
// ---------------------------------------------------------------------

// DefiniteAssign is the forward must-analysis dual of liveness: a
// register is definitely assigned at a point when every path from entry
// writes it first. The linter's use-before-def check is "use of a
// register that is not definitely assigned".
type DefiniteAssign struct {
	F *ir.Function
}

// NewDefiniteAssign builds the definite-assignment problem for f.
func NewDefiniteAssign(f *ir.Function) *DefiniteAssign { return &DefiniteAssign{F: f} }

// Direction implements Problem.
func (da *DefiniteAssign) Direction() Direction { return Forward }

// Meet implements Problem.
func (da *DefiniteAssign) Meet() Meet { return Intersect }

// NumFacts implements Problem.
func (da *DefiniteAssign) NumFacts() int { return da.F.NumRegs }

// Boundary implements Problem: parameters arrive assigned.
func (da *DefiniteAssign) Boundary() *BitSet {
	s := NewBitSet(da.F.NumRegs)
	for i := 0; i < da.F.NumParams; i++ {
		s.Set(i)
	}
	return s
}

// Transfer implements Problem.
func (da *DefiniteAssign) Transfer(_ *ir.Block, _ int, in *ir.Instr, facts *BitSet) {
	if d := in.Defs(); d != ir.NoReg {
		facts.Set(int(d))
	}
}
