// Package passes implements the compiler transformations that interweave
// the layers of the stack:
//
//   - CARAT guard/tracking injection and guard hoisting (§IV-A): compiler-
//     and runtime-based address translation without paging hardware.
//   - Compiler-based timing injection (§IV-C): statically placed calls
//     into the timer framework replacing hardware timer interrupts.
//   - Device-poll blending (§V-C): compiler-injected constant-time poll
//     checks that make devices behave as if interrupt-driven with no
//     interrupts.
//
// All passes operate on internal/ir and preserve Verify-validity.
package passes

import (
	"fmt"

	"repro/internal/ir"
)

// Pass is a function-level transformation.
type Pass interface {
	Name() string
	Run(f *ir.Function) error
}

// RunAll applies each pass to every function of m, verifying after each.
// It bumps the module's structural generation after every pass, so any
// compiled interpreter program derived from m is invalidated even when a
// pass splices Block.Instrs directly.
func RunAll(m *ir.Module, ps ...Pass) error {
	for _, p := range ps {
		for _, f := range m.Functions() {
			if err := p.Run(f); err != nil {
				return fmt.Errorf("pass %s on %s: %w", p.Name(), f.Name, err)
			}
			if err := ir.Verify(f); err != nil {
				return fmt.Errorf("pass %s broke %s: %w", p.Name(), f.Name, err)
			}
		}
		m.Touch()
	}
	return nil
}

// CARATInject inserts the CARAT runtime interface into a function:
// allocation tracking after every alloc, free tracking before every free,
// escape tracking for stored may-pointer values, and a protection guard
// before every load and store ("protection check code is introduced at
// each read or write", §IV-A).
type CARATInject struct {
	// SkipGuards disables guard insertion (tracking only), matching
	// CARAT's mobility-without-protection configuration.
	SkipGuards bool
	// Stats, populated per run.
	GuardsInserted int
	TracksInserted int
}

// Name implements Pass.
func (c *CARATInject) Name() string { return "carat-inject" }

// Run implements Pass.
func (c *CARATInject) Run(f *ir.Function) error {
	mayPtr := mayPointerRegs(f)
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				if !c.SkipGuards {
					out = append(out, &ir.Instr{Op: ir.OpGuard, Dst: ir.NoReg, A: in.A, B: ir.NoReg, Imm: in.Imm})
					c.GuardsInserted++
				}
				out = append(out, in)
			case ir.OpStore:
				if !c.SkipGuards {
					out = append(out, &ir.Instr{Op: ir.OpGuard, Dst: ir.NoReg, A: in.A, B: ir.NoReg, Imm: in.Imm})
					c.GuardsInserted++
				}
				out = append(out, in)
				// A stored pointer escapes into memory: the runtime
				// must be able to find and patch it when it moves the
				// allocation (the "garbage collector"-like mobility).
				// A carries the location base, Imm the offset, B the
				// stored value.
				if mayPtr[in.B] {
					out = append(out, &ir.Instr{Op: ir.OpTrackEsc, Dst: ir.NoReg, A: in.A, B: in.B, Imm: in.Imm})
					c.TracksInserted++
				}
			case ir.OpAlloc:
				// A carries the allocated base; the size comes from the
				// alloc's immediate, or from its size register (B) when
				// the allocation is dynamically sized. An alloc may write
				// its base over its own size register (legal IR — operand
				// reads precede the dst write; copy coalescing produces
				// this shape), so snapshot the size first in that case.
				szReg := in.A
				if szReg != ir.NoReg && szReg == in.Dst {
					tmp := f.NewReg()
					out = append(out, &ir.Instr{Op: ir.OpMov, Dst: tmp, A: szReg, B: ir.NoReg})
					szReg = tmp
				}
				out = append(out, in)
				out = append(out, &ir.Instr{Op: ir.OpTrackAlloc, Dst: ir.NoReg, A: in.Dst, B: szReg, Imm: in.Imm})
				c.TracksInserted++
			case ir.OpFree:
				out = append(out, &ir.Instr{Op: ir.OpTrackFree, Dst: ir.NoReg, A: in.A, B: ir.NoReg})
				c.TracksInserted++
				out = append(out, in)
			default:
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
	return nil
}

// mayPointerRegs computes the set of registers that may hold pointers:
// results of allocs, and anything derived from them through mov/add/sub.
// This is the conservative compiler analysis CARAT uses to find escapes.
func mayPointerRegs(f *ir.Function) map[ir.Reg]bool {
	may := make(map[ir.Reg]bool)
	// Parameters may carry pointers from callers.
	for i := 0; i < f.NumParams; i++ {
		may[ir.Reg(i)] = true
	}
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				var derived bool
				switch in.Op {
				case ir.OpAlloc, ir.OpCall, ir.OpLoad:
					// Allocation results, call results, and loaded
					// words may be pointers.
					derived = true
				case ir.OpMov:
					derived = may[in.A]
				case ir.OpAdd, ir.OpSub:
					derived = may[in.A] || may[in.B]
				}
				if derived && !may[in.Dst] {
					may[in.Dst] = true
					changed = true
				}
			}
		}
	}
	return may
}

// CARATHoist performs the guard aggregation and hoisting that takes the
// protection code "out of the critical path in most instances" (§IV-A):
//
//  1. Within a basic block, duplicate guards of the same (base, offset)
//     are removed (the first check covers the rest).
//  2. A guard whose address register is loop-invariant and whose block
//     dominates all loop latches is hoisted into the loop preheader.
//  3. A guard whose address derives from a loop-invariant base through
//     induction arithmetic (base + f(i)) is replaced by a single
//     whole-region guard on the base in the preheader.
type CARATHoist struct {
	HoistedInvariant int // rule 2 count
	HoistedRegion    int // rule 3 count
	DedupedInBlock   int // rule 1 count
	// MaxRounds bounds the innermost-to-outermost iteration.
	MaxRounds int
}

// Name implements Pass.
func (c *CARATHoist) Name() string { return "carat-hoist" }

// Run implements Pass.
func (c *CARATHoist) Run(f *ir.Function) error {
	c.dedupeBlocks(f)
	rounds := c.MaxRounds
	if rounds == 0 {
		rounds = 64
	}
	for round := 0; round < rounds; round++ {
		if !c.hoistOnce(f) {
			break
		}
		// Hoisting into a parent loop's body enables further hoisting
		// on the next round.
	}
	c.dedupeBlocks(f)
	return nil
}

// mergeWindow is the offset distance within which two guards on the same
// base register collapse into one ranged check (CARAT's aggregation of
// adjacent accesses — a single compare covers a small neighborhood).
const mergeWindow = 64

// dedupeBlocks removes redundant guards within each block: exact
// duplicates, and near-offset guards on the same unmodified base.
func (c *CARATHoist) dedupeBlocks(f *ir.Function) {
	type key struct {
		a      ir.Reg
		imm    int64
		region bool
	}
	for _, b := range f.Blocks {
		seen := make(map[key]bool)
		var out []*ir.Instr
		for _, in := range b.Instrs {
			if in.Op == ir.OpGuard {
				k := key{in.A, in.Imm, in.Region}
				if seen[k] {
					c.DedupedInBlock++
					continue
				}
				if !in.Region {
					merged := false
					for prev := range seen { // detvet:ok — existence test that breaks on the first match
						if prev.region || prev.a != in.A {
							continue
						}
						d := in.Imm - prev.imm
						if d < 0 {
							d = -d
						}
						if d <= mergeWindow {
							merged = true
							break
						}
					}
					if merged {
						c.DedupedInBlock++
						continue
					}
				}
				seen[k] = true
				out = append(out, in)
				continue
			}
			// A write to the guarded register invalidates its dedupe
			// entries (the address changed).
			if d := in.Defs(); d != ir.NoReg {
				for k := range seen { // detvet:ok — deletes only; the surviving set is order-free
					if k.a == d {
						delete(seen, k)
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// hoistOnce performs one innermost-first hoisting sweep; returns true if
// anything moved.
func (c *CARATHoist) hoistOnce(f *ir.Function) bool {
	info := ir.AnalyzeCFG(f)
	if len(info.Loops) == 0 {
		return false
	}
	// Innermost (deepest) first.
	loops := append([]*ir.Loop(nil), info.Loops...)
	for i := 0; i < len(loops); i++ {
		for j := i + 1; j < len(loops); j++ {
			if loops[j].Depth > loops[i].Depth {
				loops[i], loops[j] = loops[j], loops[i]
			}
		}
	}
	moved := false
	for _, l := range loops {
		written := l.RegsWrittenIn()
		defsIn := singleDefsIn(l)
		var hoisted []*ir.Instr
		// Walk the loop's blocks in function order, not map order: the
		// hoisted guards land in the preheader in the order collected, and
		// pass output must be deterministic.
		for _, b := range f.Blocks {
			if !l.Blocks[b] {
				continue
			}
			if !dominatesAllLatches(info, b, l) {
				continue
			}
			var out []*ir.Instr
			for _, in := range b.Instrs {
				if in.Op != ir.OpGuard {
					out = append(out, in)
					continue
				}
				if !written[in.A] {
					// Rule 2: address invariant across iterations.
					hoisted = append(hoisted, in)
					c.HoistedInvariant++
					moved = true
					continue
				}
				if base, ok := invariantBase(in.A, written, defsIn, 8); ok {
					// Rule 3: base + induction pattern; whole-region
					// guard on the invariant base.
					hoisted = append(hoisted, &ir.Instr{
						Op: ir.OpGuard, Dst: ir.NoReg, A: base, B: ir.NoReg, Region: true,
					})
					c.HoistedRegion++
					moved = true
					continue
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
		if len(hoisted) > 0 {
			ph := info.Preheader(l)
			// Insert before the preheader's terminator.
			term := ph.Instrs[len(ph.Instrs)-1]
			ph.Instrs = append(ph.Instrs[:len(ph.Instrs)-1], append(hoisted, term)...)
			// CFG may have changed (preheader insertion); restart.
			return true
		}
	}
	return moved
}

func dominatesAllLatches(info *ir.CFGInfo, b *ir.Block, l *ir.Loop) bool {
	for _, latch := range l.Latches {
		if !info.Dominates(b, latch) {
			return false
		}
	}
	return true
}

// singleDefsIn maps each register to its unique defining instruction
// within the loop, or nil if it has zero or multiple defs there.
func singleDefsIn(l *ir.Loop) map[ir.Reg]*ir.Instr {
	defs := make(map[ir.Reg]*ir.Instr)
	multi := make(map[ir.Reg]bool)
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			d := in.Defs()
			if d == ir.NoReg {
				continue
			}
			if _, ok := defs[d]; ok {
				multi[d] = true
			}
			defs[d] = in
		}
	}
	for r := range multi { // detvet:ok — deletes only; the surviving set is order-free
		delete(defs, r)
	}
	return defs
}

// invariantBase chases the def chain of r inside the loop looking for a
// loop-invariant base register combined with induction arithmetic
// (add/sub/mov/mul/shl). Returns the base and true on success.
func invariantBase(r ir.Reg, written map[ir.Reg]bool, defs map[ir.Reg]*ir.Instr, fuel int) (ir.Reg, bool) {
	if fuel == 0 {
		return 0, false
	}
	if !written[r] {
		return r, true
	}
	in, ok := defs[r]
	if !ok {
		return 0, false
	}
	switch in.Op {
	case ir.OpMov:
		return invariantBase(in.A, written, defs, fuel-1)
	case ir.OpAdd, ir.OpSub:
		// One side must chase to an invariant base; the other is the
		// induction offset (any value: the region guard covers the
		// whole allocation).
		if base, ok := invariantBaseSide(in.A, written, defs, fuel); ok {
			return base, true
		}
		if in.Op == ir.OpAdd { // base must be the left operand of sub
			if base, ok := invariantBaseSide(in.B, written, defs, fuel); ok {
				return base, true
			}
		}
	}
	return 0, false
}

// invariantBaseSide accepts either a directly invariant register or one
// whose single def chains to an invariant base through pointer-shaped
// arithmetic.
func invariantBaseSide(r ir.Reg, written map[ir.Reg]bool, defs map[ir.Reg]*ir.Instr, fuel int) (ir.Reg, bool) {
	if !written[r] {
		return r, true
	}
	in, ok := defs[r]
	if !ok {
		return 0, false
	}
	// Only chase through pointer-preserving ops for the base side: mov
	// and add/sub (mul/shl produce scaled offsets, not bases).
	if in.Op == ir.OpMov || in.Op == ir.OpAdd || in.Op == ir.OpSub {
		return invariantBase(r, written, defs, fuel-1)
	}
	return 0, false
}
