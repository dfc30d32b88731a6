// Package pik implements the "process in kernel" model of §IV-A's
// enhanced CARAT: "a Linux user-level program can be compiled,
// transformed, linked, and cryptographically attested such that it can
// run as a part of Nautilus, at kernel-level, using physical addresses,
// in a simulacrum of a process."
//
// The pipeline is real end-to-end:
//
//  1. Build: the program is an internal/ir module.
//  2. Transform: the CARAT passes inject guards/tracking and hoist them.
//  3. Attest: the transformed module is canonically encoded and HMAC-
//     signed with the platform key; the kernel loader refuses anything
//     whose signature does not verify (tampering after attestation is
//     detected).
//  4. Run: each process gets its own arena, allocation table, and
//     protection domain; guards confine it to its own regions — paging-
//     free isolation. The kernel can relocate or compact any process's
//     memory at arbitrary granularity behind its back.
package pik

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/carat"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/passes"
)

// Common loader errors.
var (
	ErrBadSignature = errors.New("pik: attestation verification failed")
	ErrFault        = errors.New("pik: protection fault")
)

// Image is an attested, transformed program ready for kernel loading.
type Image struct {
	Mod *ir.Module
	// Sig is the HMAC-SHA256 attestation over the canonical encoding.
	Sig []byte
	// GuardsInjected/Hoisted record the compile pipeline's work.
	GuardsInjected int
	GuardsHoisted  int
}

// Encode produces the canonical byte encoding of a module: functions in
// definition order, blocks in order, instructions with all operands.
// Any semantic change to the program changes the encoding.
func Encode(m *ir.Module) []byte {
	var buf []byte
	w32 := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		buf = append(buf, b[:]...)
	}
	ws := func(s string) {
		w32(int64(len(s)))
		buf = append(buf, s...)
	}
	ws(m.Name)
	fns := m.Functions()
	w32(int64(len(fns)))
	for _, f := range fns {
		ws(f.Name)
		w32(int64(f.NumParams))
		w32(int64(f.NumRegs))
		w32(int64(len(f.Blocks)))
		blockIndex := make(map[*ir.Block]int64, len(f.Blocks))
		for i, b := range f.Blocks {
			blockIndex[b] = int64(i)
		}
		for _, b := range f.Blocks {
			ws(b.Name)
			w32(int64(len(b.Instrs)))
			for _, in := range b.Instrs {
				w32(int64(in.Op))
				w32(int64(in.Dst))
				w32(int64(in.A))
				w32(int64(in.B))
				w32(in.Imm)
				w32(int64(binaryFloat(in.FImm)))
				w32(int64(in.Pred))
				ws(in.Callee)
				w32(int64(len(in.Args)))
				for _, a := range in.Args {
					w32(int64(a))
				}
				if in.Target != nil {
					w32(blockIndex[in.Target])
				} else {
					w32(-1)
				}
				if in.Else != nil {
					w32(blockIndex[in.Else])
				} else {
					w32(-1)
				}
				if in.Region {
					w32(1)
				} else {
					w32(0)
				}
			}
		}
	}
	return buf
}

func binaryFloat(f float64) uint64 { return math.Float64bits(f) }

// BuildImage runs the CARAT compile pipeline on mod and attests the
// result with key. The module is transformed in place.
func BuildImage(mod *ir.Module, key []byte) (*Image, error) {
	inj := &passes.CARATInject{}
	hoist := &passes.CARATHoist{}
	if err := passes.RunAll(mod, inj, hoist); err != nil {
		return nil, err
	}
	img := &Image{
		Mod:            mod,
		GuardsInjected: inj.GuardsInserted,
		GuardsHoisted:  hoist.HoistedInvariant + hoist.HoistedRegion,
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(Encode(mod))
	img.Sig = mac.Sum(nil)
	return img, nil
}

// Verify checks an image's attestation against key.
func Verify(img *Image, key []byte) bool {
	mac := hmac.New(sha256.New, key)
	mac.Write(Encode(img.Mod))
	return hmac.Equal(mac.Sum(nil), img.Sig)
}

// Process is a PIK process: kernel-level execution with CARAT-enforced
// isolation on physical addresses.
type Process struct {
	Name  string
	Table *carat.Table
	ip    *interp.Interp

	// Faults counts protection violations (accesses outside the
	// process's own regions).
	Faults int64
	// KillOnFault aborts execution at the first violation.
	KillOnFault bool
	faulted     bool
}

// Kernel hosts PIK processes over one shared physical address space —
// the single-address-space Nautilus model.
type Kernel struct {
	Key  []byte
	Heap *interp.Heap

	procs []*Process
}

// NewKernel creates a PIK host with the given platform key and a shared
// physical heap.
func NewKernel(key []byte) (*Kernel, error) {
	h, err := interp.NewHeap(0x10000, 512<<20)
	if err != nil {
		return nil, err
	}
	return &Kernel{Key: key, Heap: h}, nil
}

// Load verifies an image and creates a process for it. The process's
// allocations all come from the shared heap, tracked in its own table.
func (k *Kernel) Load(name string, img *Image) (*Process, error) {
	if !Verify(img, k.Key) {
		return nil, ErrBadSignature
	}
	p := &Process{Name: name, Table: carat.NewTable(), KillOnFault: true}
	// MaxSteps is left zero (interp.DefaultMaxSteps); PIK processes get
	// deeper call nesting than the interpreter default allows.
	ip := &interp.Interp{
		Mod:      img.Mod,
		Heap:     k.Heap,
		Cost:     interp.DefaultCosts(),
		MaxDepth: 512,
	}
	ip.Hooks.Guard = func(a mem.Addr) int64 {
		before := p.Table.Violations
		c := p.Table.Guard(a, false)
		if p.Table.Violations > before {
			p.Faults++
			if p.KillOnFault {
				p.faulted = true
			}
		}
		return c
	}
	ip.Hooks.GuardRegion = func(a mem.Addr) int64 {
		before := p.Table.Violations
		c := p.Table.GuardRegion(a)
		if p.Table.Violations > before {
			p.Faults++
			if p.KillOnFault {
				p.faulted = true
			}
		}
		return c
	}
	ip.Hooks.TrackAlloc = p.Table.TrackAlloc
	ip.Hooks.TrackFree = p.Table.TrackFree
	ip.Hooks.TrackEsc = p.Table.TrackEscape
	// The fault handler tears a faulting process down at the next
	// instruction boundary.
	ip.Hooks.Abort = func() error {
		if p.faulted {
			return ErrFault
		}
		return nil
	}
	p.ip = ip
	k.procs = append(k.procs, p)
	return p, nil
}

// Call runs an entry point of the process. A protection fault (with
// KillOnFault) aborts with ErrFault.
func (p *Process) Call(entry string, args ...uint64) (uint64, error) {
	ret, err := p.ip.Call(entry, args...)
	if p.faulted {
		return 0, fmt.Errorf("%w: %s touched foreign memory (%d faults)",
			ErrFault, p.Name, p.Faults)
	}
	if err != nil {
		return 0, err
	}
	return ret, nil
}

// CompactAll performs whole-system memory defragmentation: every
// process's regions are evacuated to its assigned fresh arena
// ("Nautilus can perform per-'process' and whole system memory
// defragmentation"). The processes never notice: all escaped pointers
// are patched during the move.
func (k *Kernel) CompactAll(arenas map[*Process]mem.Addr) (int64, error) {
	var total int64
	for _, p := range k.procs {
		arena, ok := arenas[p]
		if !ok {
			continue
		}
		c, err := p.Table.Evacuate(k.Heap, arena, 64)
		total += c
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
