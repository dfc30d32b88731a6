// Package interp executes internal/ir programs with cycle accounting.
//
// It is the "hardware" the compiler passes target: every instruction has
// a cycle cost, memory accesses can be routed through paging/TLB or
// coherence models, and the interweaving intrinsics (CARAT guards and
// tracking, compiler-timing yield checks, blended device polls) call out
// through Hooks so the runtime layers can charge their real costs and
// effect their real semantics.
//
// Execution has two engines with bit-identical observable behavior
// (return values, Stats, final heap contents, errors):
//
//   - The fast path (compile.go, exec.go) pre-decodes each function into
//     a contiguous instruction array with branch targets resolved to
//     absolute PCs and per-op cycle costs folded in at compile time,
//     fuses hot adjacent pairs into superinstructions, batches
//     straight-line ALU runs, and runs register frames out of a pooled
//     stack so the steady-state call loop does not allocate.
//   - The reference path (reference.go) is the original tree-walking
//     loop. It is the semantic oracle for differential tests, and it is
//     also the engine used whenever Hooks.Abort is set (abort polling is
//     specified per instruction).
//
// Call picks the engine; compiled programs are cached per Interp and
// invalidated by the module generation counter (ir.Module.Gen), by
// CostTable changes, and by toggling NoFusion.
package interp

import (
	"errors"
	"math"

	"repro/internal/ir"
	"repro/internal/mem"
)

// Common execution errors.
var (
	ErrStepLimit = errors.New("interp: step limit exceeded")
	ErrDepth     = errors.New("interp: call depth exceeded")
	ErrUndefined = errors.New("interp: call to undefined function")
)

// Default execution limits, used when the corresponding Interp field is
// left at its zero value.
const (
	DefaultMaxSteps = 200_000_000
	DefaultMaxDepth = 256
)

// CostTable assigns cycle costs to instruction classes.
type CostTable struct {
	IntALU int64 // add/sub/logic/shift/cmp/mov/const
	IntMul int64
	IntDiv int64
	FPALU  int64 // fadd/fsub/fcmp
	FPMul  int64
	FPDiv  int64
	Load   int64 // base cost; memory model hooks add more
	Store  int64
	Alloc  int64
	Free   int64
	Call   int64
	Branch int64
	Jump   int64
	Ret    int64
}

// DefaultCosts returns x64-like latencies (throughput-ish costs).
func DefaultCosts() CostTable {
	return CostTable{
		IntALU: 1, IntMul: 3, IntDiv: 21,
		FPALU: 3, FPMul: 4, FPDiv: 13,
		Load: 4, Store: 4,
		Alloc: 40, Free: 30,
		Call: 6, Branch: 2, Jump: 1, Ret: 2,
	}
}

// Hooks connect intrinsics and memory traffic to the runtime layers.
// Each hook returns the cycles its work costs; nil hooks cost zero and
// do nothing.
type Hooks struct {
	// Guard is the CARAT protection check for an effective address.
	Guard func(addr mem.Addr) int64
	// GuardRegion is the hoisted whole-region CARAT check (one check
	// validates the entire allocation containing base).
	GuardRegion func(base mem.Addr) int64
	// TrackAlloc/TrackFree/TrackEsc are CARAT allocation-table updates.
	TrackAlloc func(addr mem.Addr, size uint64) int64
	TrackFree  func(addr mem.Addr) int64
	// TrackEsc records that a (possible) pointer value val was stored
	// at location loc, so the runtime can patch it if the pointee moves.
	TrackEsc func(loc mem.Addr, val uint64) int64
	// YieldCheck is the compiler-timing check; elapsed is the cycle
	// count consumed by this Interp so far.
	YieldCheck func(elapsed int64) int64
	// Poll is the blended device poll check.
	Poll func() int64
	// MemAccess is charged for every load/store effective address
	// (paging/TLB/coherence models).
	MemAccess func(addr mem.Addr, write bool) int64
	// Extern handles calls to functions not defined in the module.
	Extern func(name string, args []uint64) (uint64, int64, error)
	// Abort, when non-nil, is polled after every instruction; a non-nil
	// return stops execution with that error (protection-fault
	// teardown, deadline enforcement). Setting Abort routes execution
	// through the reference engine, which implements the per-step
	// polling contract exactly.
	Abort func() error
	// StepLimit, when non-nil, supplies the error returned when the
	// step budget (MaxSteps) is exhausted, substituting for the bare
	// ErrStepLimit sentinel. The fault-injection harness uses it to
	// surface budget exhaustion as a typed chaos fault; the returned
	// error should wrap ErrStepLimit so errors.Is still matches. Both
	// execution engines call it at the same instruction, preserving the
	// bit-identical-behavior contract.
	StepLimit func() error
}

// Stats aggregates execution counters.
type Stats struct {
	Steps       int64
	Cycles      int64
	Loads       int64
	Stores      int64
	Allocs      int64
	Frees       int64
	Guards      int64
	YieldChecks int64
	Polls       int64
	Calls       int64
	GuardCycles int64 // cycles attributable to guards (overhead accounting)
	YieldCycles int64
	PollCycles  int64
	TrackCycles int64
	// FrameWords is the total register-frame words acquired across
	// calls, and MaxFrameRegs the widest single frame — the frame-pool
	// footprint the CopyCoalesce pass shrinks. Both engines account
	// them at frame setup, so they stay bit-identical like every other
	// counter.
	FrameWords   int64
	MaxFrameRegs int64
}

// Interp executes functions of one module against one heap.
//
// An Interp is single-threaded; concurrent executors should each hold
// their own Interp (they may share a quiescent module).
type Interp struct {
	Mod   *ir.Module
	Heap  *Heap
	Cost  CostTable
	Hooks Hooks
	Stats Stats

	// NoFusion turns off superinstruction fusion in the compiled fast
	// path. The zero value fuses every pair the static heuristic
	// (ir.EachFusiblePair) selects. Changing it invalidates the
	// compiled-program cache like a cost table change.
	NoFusion bool

	// MaxSteps bounds total executed instructions, cumulatively across
	// every Call on this Interp (Stats.Steps never resets on its own).
	// The zero value means DefaultMaxSteps, so struct-literal Interps
	// get a sane bound without spelling it out.
	MaxSteps int64
	// MaxDepth bounds call nesting. The zero value means
	// DefaultMaxDepth.
	MaxDepth int

	// Compiled-program cache (fast path). Rebuilt when the module
	// generation or the cost table changes.
	prog *Program

	// Pooled register frames and call-argument scratch: grow-only
	// stacks reused across calls so the steady-state call loop does
	// not allocate.
	regBuf []uint64
	regTop int
	argBuf []uint64
	argTop int

	// Effective limits for the Call in progress (zero-value defaults
	// applied).
	curMaxSteps int64
	curMaxDepth int
}

// The heap New gives every interpreter: 256 MiB based at 0x10000.
const (
	DefaultHeapBase mem.Addr = 0x10000
	DefaultHeapSize uint64   = 256 << 20
)

// New creates an interpreter over mod with a fresh default heap.
func New(mod *ir.Module) (*Interp, error) {
	h, err := NewHeap(DefaultHeapBase, DefaultHeapSize)
	if err != nil {
		return nil, err
	}
	return NewOnHeap(mod, h), nil
}

// NewOnHeap creates an interpreter over mod that runs on h. A caller
// running several programs in turn may give each the same heap, reset
// between runs (Heap.Reset), instead of building one per program.
func NewOnHeap(mod *ir.Module, h *Heap) *Interp {
	return &Interp{
		Mod:      mod,
		Heap:     h,
		Cost:     DefaultCosts(),
		MaxSteps: DefaultMaxSteps,
		MaxDepth: DefaultMaxDepth,
	}
}

// Call runs the named function with the given arguments and returns its
// result. Cycle and event counts accumulate in Stats across calls.
func (ip *Interp) Call(name string, args ...uint64) (uint64, error) {
	ip.setLimits()
	if ip.Hooks.Abort != nil {
		// Abort is polled between consecutive instructions; the
		// reference engine implements that contract literally.
		return ip.refCall(name, args, 0)
	}
	ip.ensureProg()
	return ip.fastCall(name, args, 0)
}

// ReferenceCall runs the named function through the reference
// tree-walking engine regardless of hook configuration. Differential
// tests use it as the semantic oracle for the compiled fast path.
func (ip *Interp) ReferenceCall(name string, args ...uint64) (uint64, error) {
	ip.setLimits()
	return ip.refCall(name, args, 0)
}

// setLimits computes the effective limits for one Call, applying the
// zero-value defaults.
func (ip *Interp) setLimits() {
	ip.curMaxSteps = ip.MaxSteps
	if ip.curMaxSteps <= 0 {
		ip.curMaxSteps = DefaultMaxSteps
	}
	ip.curMaxDepth = ip.MaxDepth
	if ip.curMaxDepth <= 0 {
		ip.curMaxDepth = DefaultMaxDepth
	}
}

// stepLimitErr is the error both engines return on step-budget
// exhaustion: the Hooks.StepLimit substitute when installed (and
// non-nil), else the ErrStepLimit sentinel.
func (ip *Interp) stepLimitErr() error {
	if ip.Hooks.StepLimit != nil {
		if err := ip.Hooks.StepLimit(); err != nil {
			return err
		}
	}
	return ErrStepLimit
}

// Program returns the compiled program for the current module, cost
// table, and fusion setting, compiling if the cache is stale — the
// same program a Call would execute (fusion reporting, tooling).
func (ip *Interp) Program() *Program {
	ip.ensureProg()
	return ip.prog
}

// ensureProg (re)compiles the module if the cached program is missing
// or stale (module mutated, cost table changed, or NoFusion toggled).
func (ip *Interp) ensureProg() {
	if ip.prog == nil || ip.prog.gen != ip.Mod.Gen() || ip.prog.cost != ip.Cost ||
		ip.prog.noFusion != ip.NoFusion {
		ip.prog = Compile(ip.Mod, ip.Cost, ip.NoFusion)
	}
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func icmp(p ir.Pred, a, b int64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}

func fcmp(p ir.Pred, a, b float64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	case ir.PredGE:
		return a >= b
	}
	return false
}

// F64 converts a raw register value to float64 (test convenience).
func F64(v uint64) float64 { return math.Float64frombits(v) }
