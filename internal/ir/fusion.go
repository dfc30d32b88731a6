package ir

// Superinstruction-fusion pattern predicates.
//
// The interpreter's compiled fast path (internal/interp) collapses hot
// adjacent instruction pairs into single pre-decoded superinstructions
// at Compile time, and analysis.LintFusible reports the same pairs as
// opportunity diagnostics. Both consumers share the predicates here so
// the fuser and the linter can never drift: a pair is fused exactly
// when EachFusiblePair visits it.

// NumOps is the number of defined opcodes; engine-private synthetic
// opcodes (fused superinstructions, trap markers) are allocated outside
// [0, NumOps).
const NumOps = int(OpPoll) + 1

// FuseKind identifies one fusible-pair pattern.
type FuseKind int

// Fusible-pair patterns. The first/second constituents are adjacent
// instructions of one basic block. Most patterns require the second to
// consume the first's result (or, for guards, to repeat its effective
// address) — a genuine dependent sequence. The remaining patterns
// (FuseLoadLoad, FuseStoreALU, FuseALUJmp) are dispatch packing for the
// hottest independent adjacencies of the kernel suite: back-to-back
// streaming loads and the `store; bump; jump` loop backedge.
const (
	// FuseCmpBr: icmp/fcmp immediately consumed by the block's
	// conditional branch — every counting-loop header.
	FuseCmpBr FuseKind = iota
	// FuseLoadALU: a load whose result feeds the next ALU op.
	FuseLoadALU
	// FuseALULoad: an ALU op computing the address of the next load
	// (the `base + i*8` addressing shape of the kernel suite).
	FuseALULoad
	// FuseALUStore: an ALU op feeding the next store's address or value.
	FuseALUStore
	// FuseGuardLoad / FuseGuardStore: a non-region CARAT guard
	// immediately followed by the access it protects, with the same
	// base register and offset — the CARATInject post-instrument shape.
	FuseGuardLoad
	FuseGuardStore
	// FuseALUALU: an isolated pure-ALU pair (mov+op chains the
	// coalescer leaves behind). Only fused when the pair is not part of
	// a longer straight-line ALU run, which the engine batches better.
	FuseALUALU
	// FuseLoadLoad: two adjacent loads (stencil neighbor reads, pointer
	// chains). Loads are never run-eligible, so this always halves
	// their dispatches.
	FuseLoadLoad
	// FuseStoreALU: a store followed by a pure ALU op — the
	// `a[i] = x; i++` tail of every streaming loop body.
	FuseStoreALU
	// FuseALUJmp: a pure ALU op followed by the block's unconditional
	// jump — the `mov i, t; jmp header` backedge shape.
	FuseALUJmp
)

var fuseKindNames = [...]string{
	FuseCmpBr:      "cmp+br",
	FuseLoadALU:    "load+alu",
	FuseALULoad:    "alu+load",
	FuseALUStore:   "alu+store",
	FuseGuardLoad:  "guard+load",
	FuseGuardStore: "guard+store",
	FuseALUALU:     "alu+alu",
	FuseLoadLoad:   "load+load",
	FuseStoreALU:   "store+alu",
	FuseALUJmp:     "alu+jmp",
}

// String returns the pattern name.
func (k FuseKind) String() string {
	if int(k) < len(fuseKindNames) {
		return fuseKindNames[k]
	}
	return "fuse(?)"
}

// PureALU reports whether op is a pure register-to-register operation:
// it cannot fault, touch memory, invoke hooks, or transfer control.
// Div/Rem are excluded (divide by zero faults). This is the set the
// engine batches into straight-line runs and the set eligible as the
// ALU constituent of a fused pair.
func PureALU(op Op) bool {
	switch op {
	case OpConst, OpFConst, OpMov,
		OpAdd, OpSub, OpMul,
		OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpICmp, OpFCmp:
		return true
	}
	return false
}

// readsReg reports whether a pure-ALU/load/store/br instruction reads r.
func readsReg(in *Instr, r Reg) bool {
	if r == NoReg {
		return false
	}
	switch in.Op {
	case OpConst, OpFConst:
		return false
	case OpMov, OpLoad, OpBr:
		return in.A == r
	default:
		return in.A == r || in.B == r
	}
}

// FusiblePair reports whether the adjacent instructions (first, second)
// match a fusion pattern, and which one. It is purely structural; the
// profitability policy (run interaction) lives
// in EachFusiblePair.
func FusiblePair(first, second *Instr) (FuseKind, bool) {
	switch {
	case (first.Op == OpICmp || first.Op == OpFCmp) && second.Op == OpBr &&
		second.A == first.Dst:
		return FuseCmpBr, true
	case first.Op == OpGuard && !first.Region && second.Op == OpLoad &&
		second.A == first.A && second.Imm == first.Imm:
		return FuseGuardLoad, true
	case first.Op == OpGuard && !first.Region && second.Op == OpStore &&
		second.A == first.A && second.Imm == first.Imm:
		return FuseGuardStore, true
	case first.Op == OpLoad && second.Op == OpLoad:
		return FuseLoadLoad, true
	case first.Op == OpLoad && PureALU(second.Op) && readsReg(second, first.Dst):
		return FuseLoadALU, true
	case PureALU(first.Op) && second.Op == OpLoad && second.A == first.Dst:
		return FuseALULoad, true
	case PureALU(first.Op) && second.Op == OpStore && readsReg(second, first.Dst):
		return FuseALUStore, true
	case first.Op == OpStore && PureALU(second.Op) &&
		second.Op != OpConst && second.Op != OpFConst:
		// Const/FConst seconds are excluded so the second constituent
		// never needs an immediate (the engine repurposes that encoding
		// slot for the pair's cost split).
		return FuseStoreALU, true
	case PureALU(first.Op) && second.Op == OpJmp:
		return FuseALUJmp, true
	case PureALU(first.Op) && PureALU(second.Op) && readsReg(second, first.Dst):
		return FuseALUALU, true
	}
	return 0, false
}

// aluInline is the pure-ALU subset whose fused ALU+ALU pairs measure
// as a win over two single-op dispatches (the engine evaluates them
// inline, in interp's aluHot). The selection policy only picks a
// pure-ALU pair when both constituents are in this set; admitting the
// wider inline set (aluHot2's sub/mul/xor/shr) measured net negative —
// the single-op arms for those are already one direct switch case.
func aluInline(op Op) bool {
	switch op {
	case OpAdd, OpMov, OpFAdd, OpFMul:
		return true
	}
	return false
}

// EachFusiblePair visits the pairs of blk that the fusion stage
// collapses, greedily left to right without overlap (an instruction
// consumed as the second constituent of one pair cannot start another).
// visit receives the index of the pair's first instruction within
// blk.Instrs and the matched pattern.
//
// Policy: fusion must never compete with the engine's batched run
// dispatch, which already executes any consecutive pure-ALU sequence
// (length >= 2) in a single dispatch with inline operations. A pattern
// is only selected when it genuinely removes a dispatch:
//
//   - FuseCmpBr, FuseGuardLoad, FuseGuardStore, FuseLoadLoad,
//     FuseALUJmp: always. None of them splits a run it shouldn't: a
//     compare ending a run still saves the branch dispatch, guards and
//     loads are never run-eligible, and an ALU+jmp pair at a run tail
//     trades the jump dispatch for the run's last element one-for-one.
//   - FuseLoadALU, FuseStoreALU: only when the instruction after the
//     pair is not pure ALU — otherwise the ALU constituent is the head
//     of a run and fusing it trades run(n)+mem for run(n-1)+fused,
//     dispatch neutral. Exception: when the run the pair would behead
//     is exactly one ALU op followed by the block's jmp, the follow-up
//     FuseALUJmp consumes that remainder, so both pairs fuse — this is
//     the `store x; bump i; mov; jmp` backedge, 4 dispatches down to 2.
//   - FuseALULoad, FuseALUStore: only when the preceding (unconsumed)
//     instruction is not pure ALU — the ALU constituent would be a run
//     tail, and the split run piece is behind us, beyond rescue.
//   - FuseALUALU: only when isolated on both sides (a longer ALU
//     sequence is exactly what the run batcher dispatches best) and
//     both ops are in the engine's inline-evaluated set, so the fused
//     arm is never slower than the run it replaces.
func EachFusiblePair(blk *Block, visit func(i int, k FuseKind)) {
	ins := blk.Instrs
	prevLive := false // previous instruction is pure ALU and not consumed by a fusion
	for i := 0; i+1 < len(ins); {
		first, second := ins[i], ins[i+1]
		k, ok := FusiblePair(first, second)
		nextALU := i+2 < len(ins) && PureALU(ins[i+2].Op)
		// The one-ALU-then-jmp remainder that FuseALUJmp will absorb.
		jmpRescue := nextALU && i+3 < len(ins) && ins[i+3].Op == OpJmp
		switch {
		case !ok:
		case (k == FuseLoadALU || k == FuseStoreALU) && nextALU && !jmpRescue:
			ok = false
		case (k == FuseALULoad || k == FuseALUStore) && prevLive:
			ok = false
		case k == FuseALUALU && (prevLive || nextALU ||
			!aluInline(first.Op) || !aluInline(second.Op)):
			ok = false
		}
		if ok {
			visit(i, k)
			prevLive = false
			i += 2
			continue
		}
		prevLive = PureALU(first.Op)
		i++
	}
}
