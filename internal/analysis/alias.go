package analysis

import "repro/internal/ir"

// AllocSite is one static OpAlloc instruction.
type AllocSite struct {
	Block *ir.Block
	Idx   int
	Dst   ir.Reg
	// Size is the allocation size in bytes when statically known
	// (constant immediate, or a size register whose every reaching
	// definition is the same constant), else 0.
	Size int64
}

// Alias is a flow-insensitive, function-local may-points-to partition:
// each register maps to the set of allocation sites its value may
// derive from, plus a distinguished Unknown element for values of
// non-local origin (parameters, loads, call results). It also computes
// which sites escape the function (stored to memory, passed to a call,
// or returned) — the partition CARAT's escape tracking and the leak
// lint both query.
type Alias struct {
	F     *ir.Function
	Sites []AllocSite

	// pts[r] has bit s set when r may point into Sites[s]; bit
	// len(Sites) is the Unknown element.
	pts     []*BitSet
	escaped *BitSet
	unknown int
}

// AnalyzeAlias computes the partition for f. The optional reaching-defs
// result (pass nil to skip) sharpens AllocSite.Size for register-sized
// allocations.
func AnalyzeAlias(f *ir.Function, rd *ReachingDefs, rdRes *Result) *Alias {
	a := &Alias{F: f}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpAlloc {
				continue
			}
			site := AllocSite{Block: b, Idx: i, Dst: in.Dst}
			if in.A == ir.NoReg {
				site.Size = in.Imm
			} else if rd != nil && rdRes != nil {
				site.Size = constReachingValue(rd, rdRes, b, i, in.A)
			}
			a.Sites = append(a.Sites, site)
		}
	}
	a.unknown = len(a.Sites)
	n := len(a.Sites) + 1
	a.pts = make([]*BitSet, f.NumRegs)
	for r := range a.pts {
		a.pts[r] = NewBitSet(n)
	}
	a.escaped = NewBitSet(n)
	for i := 0; i < f.NumParams; i++ {
		a.pts[i].Set(a.unknown)
	}

	// Fixpoint over the pointer-flow ops. Site indices are assigned in
	// block order, so re-scanning blocks in order keeps everything
	// deterministic.
	changed := true
	for changed {
		changed = false
		merge := func(dst ir.Reg, src *BitSet) {
			if dst == ir.NoReg {
				return
			}
			before := a.pts[dst].Count()
			a.pts[dst].Union(src)
			if a.pts[dst].Count() != before {
				changed = true
			}
		}
		setUnknown := func(dst ir.Reg) {
			if dst != ir.NoReg && !a.pts[dst].Has(a.unknown) {
				a.pts[dst].Set(a.unknown)
				changed = true
			}
		}
		site := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAlloc:
					if !a.pts[in.Dst].Has(site) {
						a.pts[in.Dst].Set(site)
						changed = true
					}
					site++
				case ir.OpMov:
					merge(in.Dst, a.pts[in.A])
				case ir.OpAdd, ir.OpSub:
					// Pointer arithmetic: the result may point wherever
					// either operand did.
					merge(in.Dst, a.pts[in.A])
					merge(in.Dst, a.pts[in.B])
				case ir.OpLoad, ir.OpCall:
					setUnknown(in.Dst)
				}
			}
		}
	}

	// Escapes: a site whose pointer is stored into memory, passed to a
	// call, or returned is visible outside this function body.
	esc := func(r ir.Reg) {
		if r != ir.NoReg {
			a.escaped.Union(a.pts[r])
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				esc(in.B)
			case ir.OpCall:
				for _, arg := range in.Args {
					esc(arg)
				}
			case ir.OpRet:
				esc(in.A)
			}
		}
	}
	return a
}

// constReachingValue returns the constant value of r at (b, idx) when
// every reaching definition of r is an OpConst with the same immediate,
// else 0.
func constReachingValue(rd *ReachingDefs, res *Result, b *ir.Block, idx int, r ir.Reg) int64 {
	facts, ok := res.In[b]
	if !ok {
		return 0
	}
	cur := facts.Copy()
	for i := 0; i < idx; i++ {
		rd.Transfer(b, i, b.Instrs[i], cur)
	}
	var val int64
	seen := false
	for _, id := range rd.DefsOf(r) {
		if !cur.Has(id) {
			continue
		}
		s := rd.Sites[id]
		if s.Block == nil { // parameter: unknown value
			return 0
		}
		def := s.Block.Instrs[s.Idx]
		if def.Op != ir.OpConst {
			return 0
		}
		if seen && def.Imm != val {
			return 0
		}
		val, seen = def.Imm, true
	}
	if !seen {
		return 0
	}
	return val
}

// PointsTo returns r's may-points-to set (site bits plus the Unknown
// bit at Unknown()).
func (a *Alias) PointsTo(r ir.Reg) *BitSet { return a.pts[r] }

// Unknown returns the bit index of the Unknown element.
func (a *Alias) Unknown() int { return a.unknown }

// MustSite returns the unique allocation site r's value derives from,
// if r cannot hold a value of any other origin.
func (a *Alias) MustSite(r ir.Reg) (int, bool) {
	s := a.pts[r]
	if s.Has(a.unknown) || s.Count() != 1 {
		return -1, false
	}
	site := -1
	s.ForEach(func(i int) { site = i })
	return site, true
}

// Escaped reports whether the site's pointer may be visible outside
// the function.
func (a *Alias) Escaped(site int) bool { return a.escaped.Has(site) }
