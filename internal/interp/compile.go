package interp

import (
	"math"

	"repro/internal/ir"
)

// This file is the interpreter's "compile" step: it flattens each IR
// function into a contiguous array of pre-decoded instructions. The
// flattening does four things the tree-walking reference engine pays
// for on every executed instruction:
//
//   - branch targets become absolute PCs (no *Block chasing),
//   - the cycle cost of each op is folded in from the CostTable,
//   - hot adjacent pairs (compare+branch, load+ALU, ALU+load/store,
//     guard+load/store, load+load, store+ALU, ALU+jmp backedges,
//     isolated ALU chains) are fused into single superinstructions
//     with their own dispatch arms in exec.go,
//   - maximal straight-line runs of pure ALU ops are annotated with
//     their length and total cost, so the executor can account a whole
//     run with two additions and then execute values only.
//
// Fusion runs before run annotation, so runs never include a fused
// slot; the shared selection policy (ir.EachFusiblePair) only fuses a
// pure-ALU pair when it is isolated, so fusion never splits a longer
// run the batcher would dispatch more cheaply.
//
// A Program snapshots one (module generation, cost table, fusion
// setting) triple; Interp.ensureProg recompiles when any of them change.

// opFellOff is a synthetic opcode placed in the reserved trap slot of a
// block that lacks a terminator (see ir.Layout). Executing it reproduces
// the reference engine's fell-off-the-block diagnostic.
const opFellOff = ir.Op(-1)

// noPC marks an unresolvable branch target (a *Block that is not part
// of the laid-out function — impossible via the builder API).
const noPC = int32(-2)

// cinstr is one pre-decoded instruction, packed into a single 64-byte
// cache line so the dispatch loop touches exactly one line per
// instruction. Call operands (callee name, argument registers, resolved
// target) live in a side table on cfunc, indexed by imm — calls are
// rare relative to ALU/memory traffic.
type cinstr struct {
	op     int32 // ir.Op, opFellOff, or a fused opFused* opcode
	dst    int32 // register indexes; -1 = ir.NoReg
	a, b   int32
	pred   uint8 // ir.Pred for icmp/fcmp (first constituent when fused)
	region bool
	pred2  uint8 // fused pairs: ir.Pred of the second constituent
	aux    uint8 // fused pairs: the ir.Op of the pair's ALU constituent
	// runLen/runCost: when this instruction is run-eligible (a pure
	// ALU op), the number of consecutive run-eligible instructions
	// from here to the end of the run, and their total cycle cost.
	// Computed as suffix sums so execution may also enter mid-run.
	// Fused slots are never run-eligible; their runCost field is
	// repurposed as the second constituent's immediate (imm2).
	runLen  int32
	imm     int64 // immediate; Float64bits(FImm) for fconst; call index for call
	cost    int64 // folded cycle cost of this op (both constituents when fused)
	runCost int64
	target  int32 // OpBr taken / OpJmp target, as absolute PC; fused: a2
	els     int32 // OpBr fall-through, as absolute PC; fused: b2
	blk     int32 // index into cfunc.blocks (diagnostics)
	dst2    int32 // fused pairs: destination of the second constituent
}

// Fused-pair field aliases. A fused slot is never a branch and never
// run-eligible, so the branch-target and run-cost fields are free to
// carry the second constituent's operands; the whole pair then fits in
// the one 64-byte line the dispatch loop already touches. The original
// second slot (pc+1) stays intact for the step-budget fallback path.
func (c *cinstr) a2() int32   { return c.target }
func (c *cinstr) b2() int32   { return c.els }
func (c *cinstr) imm2() int64 { return c.runCost }

// Fused superinstruction opcodes, allocated above the ir opcode space
// (consecutively, to keep the dispatch switch dense). The comparison
// `op >= opFusedBase` routes dispatch to the fused arms.
const (
	opFusedBase int32 = int32(ir.NumOps) + iota
	opFusedICmpBr
	opFusedFCmpBr
	opFusedLoadALU
	opFusedALULoad
	opFusedALUStore
	opFusedGuardLoad
	opFusedGuardStore
	opFusedALUALU
	opFusedLoadLoad
	opFusedStoreALU
	opFusedALUJmp
)

// ccall is the side-table entry for one OpCall site.
type ccall struct {
	callee  string
	calleeF *cfunc  // pre-resolved in-module callee (nil = extern)
	args    []int32 // call argument registers
}

// cfunc is one compiled function.
type cfunc struct {
	name      string
	numParams int
	numRegs   int
	code      []cinstr
	calls     []ccall
	blocks    []*ir.Block // layout order, for diagnostics
	fused     int         // superinstruction pairs formed by the fusion stage
}

// Program is a compiled module: every function flattened, valid for one
// module generation, one cost table, and one fusion setting.
type Program struct {
	gen      uint64
	cost     CostTable
	noFusion bool
	funcs    map[string]*cfunc
}

// Func returns the compiled form of the named function (tests).
func (p *Program) Func(name string) *cfunc { return p.funcs[name] }

// FusedPairs returns the total superinstruction pairs the fusion stage
// formed across all functions (benchmark and lockstep reporting).
func (p *Program) FusedPairs() int {
	total := 0
	for _, cf := range p.funcs { // detvet:ok — order-independent sum
		total += cf.fused
	}
	return total
}

// FusedPairsIn returns the fused-pair count of one function.
func (p *Program) FusedPairsIn(name string) int {
	if cf := p.funcs[name]; cf != nil {
		return cf.fused
	}
	return 0
}

// Compile flattens every function of mod against the given cost table,
// fusing the adjacent pairs ir.EachFusiblePair selects unless noFusion
// is set. It only reads the module, so concurrent compiles of a shared,
// quiescent module are safe.
func Compile(mod *ir.Module, cost CostTable, noFusion bool) *Program {
	p := &Program{gen: mod.Gen(), cost: cost, noFusion: noFusion,
		funcs: make(map[string]*cfunc, len(mod.Funcs))}
	for name, f := range mod.Funcs { // detvet:ok — map fill, order-independent
		p.funcs[name] = compileFunc(f, cost, noFusion)
	}
	// Resolve calls to in-module functions now so the executor does no
	// map lookups; a nil calleeF means extern.
	for _, cf := range p.funcs { // detvet:ok — pointer patching, order-independent
		for i := range cf.calls {
			c := &cf.calls[i]
			c.calleeF = p.funcs[c.callee]
		}
	}
	return p
}

// runnable reports whether op may be batched into a straight-line ALU
// run (ir.PureALU: pure register-to-register ops that cannot fault,
// touch memory, invoke hooks, or transfer control). Fused opcodes are
// not runnable: a fused arm does its own batched accounting.
func runnable(op ir.Op) bool {
	return int(op) < ir.NumOps && ir.PureALU(op)
}

// costOf folds the cost table into a per-op cycle cost. Interweaving
// intrinsics cost zero here: their cycles are charged by hooks.
func costOf(op ir.Op, c CostTable) int64 {
	switch op {
	case ir.OpConst, ir.OpFConst, ir.OpMov, ir.OpAdd, ir.OpSub,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpICmp:
		return c.IntALU
	case ir.OpMul:
		return c.IntMul
	case ir.OpDiv, ir.OpRem:
		return c.IntDiv
	case ir.OpFAdd, ir.OpFSub, ir.OpFCmp:
		return c.FPALU
	case ir.OpFMul:
		return c.FPMul
	case ir.OpFDiv:
		return c.FPDiv
	case ir.OpLoad:
		return c.Load
	case ir.OpStore:
		return c.Store
	case ir.OpAlloc:
		return c.Alloc
	case ir.OpFree:
		return c.Free
	case ir.OpCall:
		return c.Call
	case ir.OpBr:
		return c.Branch
	case ir.OpJmp:
		return c.Jump
	case ir.OpRet:
		return c.Ret
	}
	return 0
}

// fusePair rewrites the slot at pc into the fused superinstruction for
// pattern k, pulling the second constituent's operands out of the
// (already encoded) slot at pc+1. That second slot stays intact: normal
// control flow never reaches it — branch targets resolve only to block
// starts — but the step-budget fallback falls through to it after
// executing the first constituent singly.
func fusePair(cf *cfunc, pc int, k ir.FuseKind) {
	s1 := &cf.code[pc]
	s2 := &cf.code[pc+1]
	switch k {
	case ir.FuseCmpBr:
		if ir.Op(s1.op) == ir.OpICmp {
			s1.op = opFusedICmpBr
		} else {
			s1.op = opFusedFCmpBr
		}
		s1.target, s1.els = s2.target, s2.els
	case ir.FuseLoadALU:
		s1.op = opFusedLoadALU
		s1.aux = uint8(s2.op)
		s1.pred2 = s2.pred
		s1.dst2 = s2.dst
		s1.target, s1.els = s2.a, s2.b // a2, b2
		// The ALU constituent reads the load's result, so it is never a
		// const and needs no immediate; the imm2 slot carries its cost so
		// the arm can charge the load before the MemAccess hook observes
		// Stats and the ALU after, matching the reference order.
		s1.runCost = s2.cost
	case ir.FuseALULoad:
		s1.aux = uint8(s1.op)
		s1.op = opFusedALULoad
		s1.dst2 = s2.dst
		s1.target = s2.a    // a2
		s1.runCost = s2.imm // imm2
	case ir.FuseALUStore:
		s1.aux = uint8(s1.op)
		s1.op = opFusedALUStore
		s1.target, s1.els = s2.a, s2.b // a2, b2
		s1.runCost = s2.imm            // imm2
	case ir.FuseGuardLoad:
		s1.op = opFusedGuardLoad
		s1.dst2 = s2.dst
		s1.target = s2.a    // a2
		s1.runCost = s2.imm // imm2
	case ir.FuseGuardStore:
		s1.op = opFusedGuardStore
		s1.target, s1.els = s2.a, s2.b // a2, b2
		s1.runCost = s2.imm            // imm2
	case ir.FuseALUALU:
		// Both constituents are pure ALU; the second's operands are read
		// live from the intact slot at pc+1, so only the first's opcode
		// needs saving.
		s1.aux = uint8(s1.op)
		s1.op = opFusedALUALU
	case ir.FuseLoadLoad:
		s1.op = opFusedLoadLoad
		s1.dst2 = s2.dst
		s1.target = s2.a    // a2
		s1.runCost = s2.imm // imm2
	case ir.FuseStoreALU:
		// The ALU constituent is never a const (pattern excludes them),
		// so imm2 is free to carry its cost for the hook-parity split.
		s1.op = opFusedStoreALU
		s1.aux = uint8(s2.op)
		s1.pred2 = s2.pred
		s1.dst2 = s2.dst
		s1.target, s1.els = s2.a, s2.b // a2, b2
		s1.runCost = s2.cost
	case ir.FuseALUJmp:
		s1.aux = uint8(s1.op)
		s1.op = opFusedALUJmp
		s1.target = s2.target
	}
	s1.cost += s2.cost
	cf.fused++
}

func compileFunc(f *ir.Function, cost CostTable, noFusion bool) *cfunc {
	l := f.Layout()
	cf := &cfunc{
		name:      f.Name,
		numParams: f.NumParams,
		numRegs:   f.NumRegs,
		code:      make([]cinstr, l.N),
		blocks:    l.Blocks,
	}
	resolve := func(b *ir.Block) int32 {
		if pc, ok := l.StartOf(b); ok {
			return int32(pc)
		}
		return noPC
	}
	for bi, b := range l.Blocks {
		pc := l.Start[bi]
		for _, in := range b.Instrs {
			ci := &cf.code[pc]
			ci.op = int32(in.Op)
			ci.pred = uint8(in.Pred)
			ci.region = in.Region
			ci.dst = int32(in.Dst)
			ci.a = int32(in.A)
			ci.b = int32(in.B)
			ci.imm = in.Imm
			ci.cost = costOf(in.Op, cost)
			ci.blk = int32(bi)
			switch in.Op {
			case ir.OpFConst:
				ci.imm = int64(math.Float64bits(in.FImm))
			case ir.OpBr:
				ci.target = resolve(in.Target)
				ci.els = resolve(in.Else)
			case ir.OpJmp:
				ci.target = resolve(in.Target)
			case ir.OpCall:
				args := make([]int32, len(in.Args))
				for i, r := range in.Args {
					args[i] = int32(r)
				}
				ci.imm = int64(len(cf.calls))
				cf.calls = append(cf.calls, ccall{callee: in.Callee, args: args})
			}
			pc++
		}
		if tp := l.TrapPC(bi); tp >= 0 {
			cf.code[tp] = cinstr{op: int32(opFellOff), blk: int32(bi)}
		}
	}
	// Fusion stage: collapse the selected adjacent pairs into
	// superinstructions, greedily per block (ir.EachFusiblePair is the
	// shared selection policy — analysis.LintFusible walks the same
	// pairs). Must run before run annotation: fused slots are not
	// run-eligible, and the policy keeps pure-ALU fusion out of longer
	// runs, so annotation over the fused code stays optimal.
	if !noFusion {
		for bi, b := range l.Blocks {
			start := l.Start[bi]
			ir.EachFusiblePair(b, func(i int, k ir.FuseKind) {
				fusePair(cf, start+i, k)
			})
		}
	}
	// Annotate straight-line ALU runs with suffix lengths and costs.
	// Runs never cross a block boundary: every block span ends in a
	// terminator or a trap slot, neither of which is runnable.
	for bi, b := range l.Blocks {
		start := l.Start[bi]
		var runLen int32
		var runCost int64
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			ci := &cf.code[start+i]
			if runnable(ir.Op(ci.op)) {
				runLen++
				runCost += ci.cost
				ci.runLen = runLen
				ci.runCost = runCost
			} else {
				runLen = 0
				runCost = 0
			}
		}
	}
	return cf
}
