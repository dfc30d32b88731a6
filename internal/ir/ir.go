// Package ir implements a small three-address-code compiler intermediate
// representation with virtual registers, an explicit CFG, dominator
// analysis, and natural-loop detection.
//
// It is the substrate for the paper's compiler-side interweaving: the
// CARAT guard-injection and hoisting passes (§IV-A), the compiler-based
// timing pass (§IV-C), and the device-poll blending pass (§V-C) all
// operate on this IR, and the internal/interp package executes it with
// cycle accounting.
package ir

import "fmt"

// Reg is a virtual register index within a function.
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op is an instruction opcode.
type Op int

// Opcodes. Arithmetic ops treat registers as int64; the F-prefixed ops
// treat them as float64 bit patterns.
const (
	OpConst  Op = iota // Dst = Imm
	OpFConst           // Dst = FImm (float64 bits)
	OpMov              // Dst = A
	OpAdd              // Dst = A + B
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpICmp  // Dst = Pred(A, B) as 0/1, integer compare
	OpFCmp  // float compare
	OpLoad  // Dst = mem[A + Imm]
	OpStore // mem[A + Imm] = B
	OpAlloc // Dst = allocate(Imm bytes); A optionally overrides size
	OpFree  // free(A)
	OpCall  // Dst = Callee(Args...)
	OpBr    // if A != 0 goto Target else Else (terminator)
	OpJmp   // goto Target (terminator)
	OpRet   // return A (terminator; A may be NoReg)

	// Interweaving intrinsics, inserted by passes.
	OpGuard      // CARAT protection check of address A + Imm
	OpTrackAlloc // CARAT allocation-table insert for Dst of prior OpAlloc (A holds addr)
	OpTrackFree  // CARAT allocation-table remove (A holds addr)
	OpTrackEsc   // CARAT escape tracking for a stored pointer (A holds value)
	OpYieldCheck // compiler-timing check: call into the timer framework if quantum elapsed
	OpPoll       // blended device poll check
)

var opNames = map[Op]string{
	OpConst: "const", OpFConst: "fconst", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpLoad: "load", OpStore: "store", OpAlloc: "alloc", OpFree: "free",
	OpCall: "call", OpBr: "br", OpJmp: "jmp", OpRet: "ret",
	OpGuard: "carat.guard", OpTrackAlloc: "carat.track_alloc",
	OpTrackFree: "carat.track_free", OpTrackEsc: "carat.track_escape",
	OpYieldCheck: "nk.yield_check", OpPoll: "nk.poll",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpJmp || o == OpRet }

// Pred is a comparison predicate for OpICmp/OpFCmp.
type Pred int

// Comparison predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

// Instr is one three-address instruction.
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Reg
	Imm    int64
	FImm   float64
	Pred   Pred
	Callee string
	Args   []Reg
	Target *Block // branch/jump taken target
	Else   *Block // branch fall-through target
	// Region marks an OpGuard as a whole-region guard: instead of
	// checking one effective address, it validates the entire tracked
	// allocation containing A. The CARAT hoisting pass emits these in
	// loop preheaders to replace per-iteration guards (§IV-A:
	// "aggregate and hoist protection and tracking code").
	Region bool
}

// Defs returns the register the instruction writes, or NoReg.
func (in *Instr) Defs() Reg {
	switch in.Op {
	case OpConst, OpFConst, OpMov, OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpICmp, OpFCmp,
		OpLoad, OpAlloc, OpCall:
		return in.Dst
	}
	return NoReg
}

// Uses appends the registers the instruction reads to buf and returns it.
func (in *Instr) Uses(buf []Reg) []Reg {
	add := func(r Reg) {
		if r != NoReg {
			buf = append(buf, r)
		}
	}
	switch in.Op {
	case OpConst, OpFConst:
	case OpMov:
		add(in.A)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpICmp, OpFCmp:
		add(in.A)
		add(in.B)
	case OpLoad:
		add(in.A)
	case OpStore:
		add(in.A)
		add(in.B)
	case OpAlloc:
		add(in.A)
	case OpFree, OpGuard, OpTrackFree:
		add(in.A)
	case OpTrackAlloc, OpTrackEsc:
		add(in.A)
		add(in.B)
	case OpCall:
		buf = append(buf, in.Args...)
	case OpBr:
		add(in.A)
	case OpRet:
		add(in.A)
	}
	return buf
}

// MapUses rewrites every register the instruction reads through fn
// (mirror of Uses). NoReg fields are left untouched.
func (in *Instr) MapUses(fn func(Reg) Reg) {
	mapA := func() {
		if in.A != NoReg {
			in.A = fn(in.A)
		}
	}
	mapB := func() {
		if in.B != NoReg {
			in.B = fn(in.B)
		}
	}
	switch in.Op {
	case OpConst, OpFConst, OpJmp:
	case OpMov, OpLoad, OpAlloc, OpFree, OpGuard, OpTrackFree, OpBr, OpRet:
		mapA()
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpICmp, OpFCmp,
		OpStore, OpTrackAlloc, OpTrackEsc:
		mapA()
		mapB()
	case OpCall:
		for i, r := range in.Args {
			in.Args[i] = fn(r)
		}
	}
}

// MapRegs rewrites every register field of the instruction — the uses
// and the destination — through fn.
func (in *Instr) MapRegs(fn func(Reg) Reg) {
	in.MapUses(fn)
	if in.Defs() != NoReg {
		in.Dst = fn(in.Dst)
	}
}

// Block is a basic block: a straight-line instruction sequence ending in
// a single terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	fn     *Function
}

// Terminator returns the block's final instruction if it is a terminator.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpJmp:
		return []*Block{t.Target}
	case OpBr:
		if t.Target == t.Else {
			return []*Block{t.Target}
		}
		return []*Block{t.Target, t.Else}
	}
	return nil
}

// Function is a procedure: named, with a fixed number of parameters
// passed in registers 0..NumParams-1.
type Function struct {
	Name      string
	NumParams int
	NumRegs   int
	Blocks    []*Block

	mod *Module // owning module (generation bookkeeping)
}

// Touch records a structural mutation of the function, bumping the
// owning module's generation so that derived artifacts (layouts,
// compiled interpreter programs) know to rebuild. The builder and the
// structural mutators below call it automatically; code that splices
// Block.Instrs by hand after execution has started must call it (or
// Module.Touch) itself.
func (f *Function) Touch() {
	if f.mod != nil {
		f.mod.gen++
	}
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new empty block with the given name, uniquified
// with a numeric suffix if the name is already taken (Verify rejects
// duplicate names — they make diagnostics and dumps ambiguous).
func (f *Function) NewBlock(name string) *Block {
	taken := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		taken[b.Name] = true
	}
	if taken[name] {
		base := name
		for n := 2; ; n++ {
			name = fmt.Sprintf("%s.%d", base, n)
			if !taken[name] {
				break
			}
		}
	}
	b := &Block{Name: name, fn: f}
	f.Blocks = append(f.Blocks, b)
	f.Touch()
	return b
}

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.Touch()
	return r
}

// InstrCount returns the total instruction count (a LoC-like size metric
// used by pass statistics).
func (f *Function) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// CountOp returns how many instructions have the given opcode; pass tests
// use this to verify injection/hoisting behavior.
func (f *Function) CountOp(op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// Module is a set of functions.
//
// The module carries a structural generation counter: every mutation
// through the ir API (new functions, new blocks, new registers, builder
// emission, pass rewrites via passes.RunAll) bumps it. Consumers that
// cache per-generation artifacts — Function.Layout, the interpreter's
// compiled programs — compare generations to decide whether their cache
// is still valid. Mutation is only safe single-threaded; concurrent
// executors may share a module as long as nobody mutates it.
type Module struct {
	Name  string
	Funcs map[string]*Function
	order []string
	gen   uint64
}

// Gen returns the module's structural generation.
func (m *Module) Gen() uint64 { return m.gen }

// Touch bumps the structural generation, invalidating cached layouts
// and compiled programs. The ir API calls it automatically; call it by
// hand after splicing Block.Instrs directly.
func (m *Module) Touch() { m.gen++ }

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, Funcs: make(map[string]*Function)}
}

// NewFunction creates and registers a function with numParams parameters.
func (m *Module) NewFunction(name string, numParams int) *Function {
	f := &Function{Name: name, NumParams: numParams, NumRegs: numParams, mod: m}
	m.Funcs[name] = f
	m.order = append(m.order, name)
	m.gen++
	return f
}

// Functions returns the module's functions in definition order.
func (m *Module) Functions() []*Function {
	out := make([]*Function, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, m.Funcs[n])
	}
	return out
}
