package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/mem"
)

// refCall is the reference tree-walking engine: it executes the IR
// directly, block pointer by block pointer, with every per-instruction
// obligation (step accounting, abort polling, hook dispatch) performed
// inline in program order. It is deliberately unclever — it defines the
// observable semantics the compiled fast path (exec.go) must reproduce
// bit-for-bit, and it is the engine used when Hooks.Abort is set.
//
// Callers must have run setLimits first (Call and ReferenceCall do).
func (ip *Interp) refCall(name string, args []uint64, depth int) (uint64, error) {
	if depth > ip.curMaxDepth {
		return 0, ErrDepth
	}
	f, ok := ip.Mod.Funcs[name]
	if !ok {
		if ip.Hooks.Extern != nil {
			ret, cost, err := ip.Hooks.Extern(name, args)
			ip.Stats.Cycles += cost
			return ret, err
		}
		return 0, fmt.Errorf("%w: %s", ErrUndefined, name)
	}
	if len(args) != f.NumParams {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", name, f.NumParams, len(args))
	}
	regs := make([]uint64, f.NumRegs)
	ip.Stats.FrameWords += int64(f.NumRegs)
	if int64(f.NumRegs) > ip.Stats.MaxFrameRegs {
		ip.Stats.MaxFrameRegs = int64(f.NumRegs)
	}
	copy(regs, args)

	blk := f.Entry()
	idx := 0
	for {
		if idx >= len(blk.Instrs) {
			return 0, fmt.Errorf("interp: fell off block %s.%s", f.Name, blk.Name)
		}
		in := blk.Instrs[idx]
		ip.Stats.Steps++
		if ip.Stats.Steps > ip.curMaxSteps {
			return 0, ip.stepLimitErr()
		}
		if ip.Hooks.Abort != nil {
			if err := ip.Hooks.Abort(); err != nil {
				return 0, err
			}
		}
		switch in.Op {
		case ir.OpConst:
			regs[in.Dst] = uint64(in.Imm)
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpFConst:
			regs[in.Dst] = math.Float64bits(in.FImm)
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpAdd:
			regs[in.Dst] = uint64(int64(regs[in.A]) + int64(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpSub:
			regs[in.Dst] = uint64(int64(regs[in.A]) - int64(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpMul:
			regs[in.Dst] = uint64(int64(regs[in.A]) * int64(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.IntMul
		case ir.OpDiv:
			b := int64(regs[in.B])
			if b == 0 {
				return 0, fmt.Errorf("interp: division by zero in %s.%s", f.Name, blk.Name)
			}
			regs[in.Dst] = uint64(int64(regs[in.A]) / b)
			ip.Stats.Cycles += ip.Cost.IntDiv
		case ir.OpRem:
			b := int64(regs[in.B])
			if b == 0 {
				return 0, fmt.Errorf("interp: modulo by zero in %s.%s", f.Name, blk.Name)
			}
			regs[in.Dst] = uint64(int64(regs[in.A]) % b)
			ip.Stats.Cycles += ip.Cost.IntDiv
		case ir.OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpShl:
			regs[in.Dst] = regs[in.A] << (regs[in.B] & 63)
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpShr:
			regs[in.Dst] = regs[in.A] >> (regs[in.B] & 63)
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpFAdd:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) + math.Float64frombits(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.FPALU
		case ir.OpFSub:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) - math.Float64frombits(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.FPALU
		case ir.OpFMul:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) * math.Float64frombits(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.FPMul
		case ir.OpFDiv:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) / math.Float64frombits(regs[in.B]))
			ip.Stats.Cycles += ip.Cost.FPDiv
		case ir.OpICmp:
			regs[in.Dst] = boolToU64(icmp(in.Pred, int64(regs[in.A]), int64(regs[in.B])))
			ip.Stats.Cycles += ip.Cost.IntALU
		case ir.OpFCmp:
			regs[in.Dst] = boolToU64(fcmp(in.Pred, math.Float64frombits(regs[in.A]), math.Float64frombits(regs[in.B])))
			ip.Stats.Cycles += ip.Cost.FPALU
		case ir.OpLoad:
			addr := mem.Addr(int64(regs[in.A]) + in.Imm)
			ip.Stats.Loads++
			ip.Stats.Cycles += ip.Cost.Load
			if ip.Hooks.MemAccess != nil {
				ip.Stats.Cycles += ip.Hooks.MemAccess(addr, false)
			}
			regs[in.Dst] = ip.Heap.Load(addr)
		case ir.OpStore:
			addr := mem.Addr(int64(regs[in.A]) + in.Imm)
			ip.Stats.Stores++
			ip.Stats.Cycles += ip.Cost.Store
			if ip.Hooks.MemAccess != nil {
				ip.Stats.Cycles += ip.Hooks.MemAccess(addr, true)
			}
			ip.Heap.Store(addr, regs[in.B])
		case ir.OpAlloc:
			size := uint64(in.Imm)
			if in.A != ir.NoReg {
				size = regs[in.A]
			}
			a, err := ip.Heap.Alloc(size)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = uint64(a)
			ip.Stats.Allocs++
			ip.Stats.Cycles += ip.Cost.Alloc
		case ir.OpFree:
			if err := ip.Heap.Free(mem.Addr(regs[in.A])); err != nil {
				return 0, err
			}
			ip.Stats.Frees++
			ip.Stats.Cycles += ip.Cost.Free
		case ir.OpCall:
			callArgs := make([]uint64, len(in.Args))
			for i, r := range in.Args {
				callArgs[i] = regs[r]
			}
			ip.Stats.Calls++
			ip.Stats.Cycles += ip.Cost.Call
			ret, err := ip.refCall(in.Callee, callArgs, depth+1)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = ret
		case ir.OpGuard:
			ip.Stats.Guards++
			if in.Region {
				if ip.Hooks.GuardRegion != nil {
					c := ip.Hooks.GuardRegion(mem.Addr(regs[in.A]))
					ip.Stats.Cycles += c
					ip.Stats.GuardCycles += c
				}
			} else if ip.Hooks.Guard != nil {
				c := ip.Hooks.Guard(mem.Addr(int64(regs[in.A]) + in.Imm))
				ip.Stats.Cycles += c
				ip.Stats.GuardCycles += c
			}
		case ir.OpTrackAlloc:
			if ip.Hooks.TrackAlloc != nil {
				sz := uint64(in.Imm)
				if in.B != ir.NoReg {
					sz = regs[in.B]
				}
				c := ip.Hooks.TrackAlloc(mem.Addr(regs[in.A]), sz)
				ip.Stats.Cycles += c
				ip.Stats.TrackCycles += c
			}
		case ir.OpTrackFree:
			if ip.Hooks.TrackFree != nil {
				c := ip.Hooks.TrackFree(mem.Addr(regs[in.A]))
				ip.Stats.Cycles += c
				ip.Stats.TrackCycles += c
			}
		case ir.OpTrackEsc:
			if ip.Hooks.TrackEsc != nil {
				loc := mem.Addr(int64(regs[in.A]) + in.Imm)
				c := ip.Hooks.TrackEsc(loc, regs[in.B])
				ip.Stats.Cycles += c
				ip.Stats.TrackCycles += c
			}
		case ir.OpYieldCheck:
			ip.Stats.YieldChecks++
			if ip.Hooks.YieldCheck != nil {
				c := ip.Hooks.YieldCheck(ip.Stats.Cycles)
				ip.Stats.Cycles += c
				ip.Stats.YieldCycles += c
			}
		case ir.OpPoll:
			ip.Stats.Polls++
			if ip.Hooks.Poll != nil {
				c := ip.Hooks.Poll()
				ip.Stats.Cycles += c
				ip.Stats.PollCycles += c
			}
		case ir.OpBr:
			ip.Stats.Cycles += ip.Cost.Branch
			if regs[in.A] != 0 {
				blk, idx = in.Target, 0
			} else {
				blk, idx = in.Else, 0
			}
			continue
		case ir.OpJmp:
			ip.Stats.Cycles += ip.Cost.Jump
			blk, idx = in.Target, 0
			continue
		case ir.OpRet:
			ip.Stats.Cycles += ip.Cost.Ret
			if in.A == ir.NoReg {
				return 0, nil
			}
			return regs[in.A], nil
		default:
			return 0, fmt.Errorf("interp: unimplemented op %s", in.Op)
		}
		idx++
	}
}
