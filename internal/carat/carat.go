// Package carat implements the runtime half of CARAT — Compiler- And
// Runtime-based Address Translation (§IV-A): an allocation table, escape
// tracking, protection guards, and data mobility (region relocation and
// whole-heap compaction) — all operating on physical addresses with no
// paging hardware.
//
// The compiler half lives in internal/passes (guard/tracking injection
// and hoisting); the two halves meet through the internal/interp hooks.
package carat

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
)

// ErrUntracked is returned when relocating an address that is not a
// tracked allocation base.
var ErrUntracked = errors.New("carat: address is not a tracked allocation")

// Perm is a protection permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

// Region is one tracked allocation.
type Region struct {
	Base mem.Addr
	Size uint64
	Perm Perm
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr mem.Addr) bool {
	return addr >= r.Base && uint64(addr-r.Base) < r.Size
}

// Costs parameterize the cycle cost of each runtime operation. The
// paper's result is that the *aggregate* of these costs is <6% geomean
// after compiler hoisting.
type Costs struct {
	Guard       int64 // per-address protection check (compare chain)
	GuardRegion int64 // hoisted whole-region check
	Track       int64 // allocation-table insert/remove
	// EscapeCheck is the inline "is this value a heap pointer?" range
	// compare executed at every may-pointer store.
	EscapeCheck int64
	// Escape is the escape-set insert paid only when the value really
	// points into a tracked region.
	Escape      int64
	MovePerWord int64 // relocation copy cost per 8 bytes
	Patch       int64 // per patched escape on relocation
}

// DefaultCosts returns the calibrated runtime costs. Guards compile to
// an inline compare chain against a cached region descriptor (§IV-A's
// "modern code analysis ... can massively reduce the potentially high
// costs"), so the per-check cost is a few cycles, not a table walk.
func DefaultCosts() Costs {
	return Costs{Guard: 3, GuardRegion: 10, Track: 28, EscapeCheck: 2, Escape: 10,
		MovePerWord: 2, Patch: 6}
}

// Memory is the minimal heap interface the runtime needs for mobility.
// interp.Heap satisfies it.
type Memory interface {
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	Move(src, dst mem.Addr, n uint64)
}

// Table is the CARAT allocation map: all live allocations, ordered by
// base address, plus the escape set used to patch pointers on moves.
type Table struct {
	Costs Costs

	regions []Region // sorted by Base
	// escapes holds, in ascending address order and without repeats,
	// every memory location where a pointer-typed value was stored
	// (conservatively).
	escapes []mem.Addr
	// moved is Relocate's scratch for the escape locations that move
	// with a region when they cannot be rewritten where they stand.
	moved []mem.Addr

	// Statistics.
	GuardsChecked  int64
	RegionGuards   int64
	Violations     int64
	Tracked        int64
	Untracked      int64
	EscapesTracked int64
	Moves          int64
	WordsMoved     int64
	PointersFixed  int64
}

// NewTable creates an empty allocation table with default costs.
func NewTable() *Table {
	return &Table{Costs: DefaultCosts()}
}

// escapesIn returns the index range [i, j) of the escape locations that
// lie inside r.
func (t *Table) escapesIn(r Region) (i, j int) {
	i, _ = slices.BinarySearch(t.escapes, r.Base)
	rest := t.escapes[i:]
	return i, i + sort.Search(len(rest), func(k int) bool { return !r.Contains(rest[k]) })
}

// addEscape adds loc to the escape set, if it is not there yet.
func (t *Table) addEscape(loc mem.Addr) {
	if i, ok := slices.BinarySearch(t.escapes, loc); !ok {
		t.escapes = slices.Insert(t.escapes, i, loc)
	}
}

// Len returns the number of tracked regions.
func (t *Table) Len() int { return len(t.regions) }

// find returns the index of the region containing addr, or -1.
func (t *Table) find(addr mem.Addr) int {
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].Base > addr
	})
	if i == 0 {
		return -1
	}
	if t.regions[i-1].Contains(addr) {
		return i - 1
	}
	return -1
}

// Lookup returns the region containing addr.
func (t *Table) Lookup(addr mem.Addr) (Region, bool) {
	if i := t.find(addr); i >= 0 {
		return t.regions[i], true
	}
	return Region{}, false
}

// TrackAlloc registers a new allocation with RW permission and returns
// the operation's cycle cost. Overlapping registrations panic: they
// indicate allocator corruption.
func (t *Table) TrackAlloc(base mem.Addr, size uint64) int64 {
	if size == 0 {
		size = 1
	}
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].Base > base
	})
	if i > 0 && t.regions[i-1].Contains(base) {
		panic(fmt.Sprintf("carat: overlapping allocation at %#x", base))
	}
	if i < len(t.regions) && t.regions[i].Base < base+mem.Addr(size) {
		panic(fmt.Sprintf("carat: allocation at %#x overlaps next region", base))
	}
	t.regions = append(t.regions, Region{})
	copy(t.regions[i+1:], t.regions[i:])
	t.regions[i] = Region{Base: base, Size: size, Perm: PermRW}
	t.Tracked++
	return t.Costs.Track
}

// TrackFree removes an allocation and its escapes, returning the cost.
func (t *Table) TrackFree(base mem.Addr) int64 {
	i := t.find(base)
	if i < 0 || t.regions[i].Base != base {
		// Tolerated: free of untracked memory is the application's bug;
		// the runtime just ignores it (and the guard would catch uses).
		t.Untracked++
		return t.Costs.Track
	}
	r := t.regions[i]
	t.regions = append(t.regions[:i], t.regions[i+1:]...)
	lo, hi := t.escapesIn(r)
	t.escapes = slices.Delete(t.escapes, lo, hi)
	return t.Costs.Track
}

// SetPerm changes a region's protection, enabling per-"process"
// protection domains (the PIK-based enhanced CARAT, §IV-A).
func (t *Table) SetPerm(base mem.Addr, p Perm) error {
	i := t.find(base)
	if i < 0 || t.regions[i].Base != base {
		return ErrUntracked
	}
	t.regions[i].Perm = p
	return nil
}

// Guard validates one effective address for the given access kind and
// returns the check's cycle cost. Violations are counted, mirroring a
// protection fault delivered to the runtime.
func (t *Table) Guard(addr mem.Addr, write bool) int64 {
	t.GuardsChecked++
	i := t.find(addr)
	if i < 0 {
		t.Violations++
		return t.Costs.Guard
	}
	need := PermRead
	if write {
		need = PermWrite
	}
	if t.regions[i].Perm&need == 0 {
		t.Violations++
	}
	return t.Costs.Guard
}

// GuardRegion validates the entire allocation containing base — the
// hoisted form emitted by the compiler for base+induction access
// patterns. One check covers a whole loop's accesses to the region.
func (t *Table) GuardRegion(base mem.Addr) int64 {
	t.RegionGuards++
	if t.find(base) < 0 {
		t.Violations++
	}
	return t.Costs.GuardRegion
}

// TrackEscape records that a pointer value was stored at loc, if the
// value points into a tracked region. A compile-time may-pointer that
// turns out not to point at the heap costs only the inline range check.
func (t *Table) TrackEscape(loc mem.Addr, val uint64) int64 {
	if t.find(mem.Addr(val)) >= 0 {
		t.addEscape(loc)
		t.EscapesTracked++
		return t.Costs.EscapeCheck + t.Costs.Escape
	}
	return t.Costs.EscapeCheck
}

// Relocate moves the allocation based at oldBase to newBase: copies the
// content, patches every tracked escaped pointer that pointed into the
// region (including escape locations that themselves lived inside it),
// and updates the table. This is the "data movements operate similarly
// to a garbage collector" machinery. Returns the cycle cost.
func (t *Table) Relocate(m Memory, oldBase, newBase mem.Addr) (int64, error) {
	i := t.find(oldBase)
	if i < 0 || t.regions[i].Base != oldBase {
		return 0, ErrUntracked
	}
	r := t.regions[i]
	delta := int64(newBase) - int64(oldBase)

	// Copy content.
	m.Move(oldBase, newBase, r.Size)
	words := int64((r.Size + 7) / 8)
	cost := words * t.Costs.MovePerWord
	t.Moves++
	t.WordsMoved += words

	// Patch escaped pointers into the moved region, relocating escape
	// locations that themselves moved (those in [lo, hi)). Escapes are
	// visited in address order. A location that moves onto an escape
	// outside the region makes two visits patch the same word; both apply
	// the same patch, so a pointer that still points into the region
	// after the first is moved again by the second.
	lo, hi := t.escapesIn(r)
	for k, loc := range t.escapes {
		if k >= lo && k < hi {
			loc = mem.Addr(int64(loc) + delta)
		}
		v := m.Load(loc)
		if r.Contains(mem.Addr(v)) {
			m.Store(loc, uint64(int64(v)+delta))
			t.PointersFixed++
			cost += t.Costs.Patch
		}
	}
	// The moved locations keep their order among themselves. Where they
	// still fall between their neighbours they are rewritten in place;
	// otherwise they are merged back among the rest, dropping any that
	// land on an escape already there.
	if lo < hi {
		first, last := mem.Addr(int64(t.escapes[lo])+delta), mem.Addr(int64(t.escapes[hi-1])+delta)
		if (lo == 0 || t.escapes[lo-1] < first) && (hi == len(t.escapes) || last < t.escapes[hi]) {
			for k := lo; k < hi; k++ {
				t.escapes[k] = mem.Addr(int64(t.escapes[k]) + delta)
			}
		} else {
			t.moved = append(t.moved[:0], t.escapes[lo:hi]...)
			t.escapes = slices.Delete(t.escapes, lo, hi)
			for _, loc := range t.moved {
				t.addEscape(mem.Addr(int64(loc) + delta))
			}
		}
	}

	// Update table ordering.
	t.regions = append(t.regions[:i], t.regions[i+1:]...)
	j := sort.Search(len(t.regions), func(k int) bool {
		return t.regions[k].Base > newBase
	})
	t.regions = append(t.regions, Region{})
	copy(t.regions[j+1:], t.regions[j:])
	t.regions[j] = Region{Base: newBase, Size: r.Size, Perm: r.Perm}
	return cost, nil
}

// Regions returns a snapshot of the tracked regions in address order.
func (t *Table) Regions() []Region {
	return append([]Region(nil), t.regions...)
}

// Escapes returns the current number of tracked escape locations.
func (t *Table) Escapes() int { return len(t.escapes) }

// Compact slides every region as low as possible into the address range
// starting at floor, in address order — whole-heap defragmentation at
// arbitrary granularity ("memory can be managed at arbitrary granularity,
// instead of being restricted to page sizes"). align must be a power of
// two. Returns total cycle cost.
//
// The caller owns the address range; Compact only performs the moves and
// patching. It never overlaps source and destination because regions are
// processed low-to-high and only ever move downward.
func (t *Table) Compact(m Memory, floor mem.Addr, align uint64) (int64, error) {
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("carat: bad alignment %d", align)
	}
	var total int64
	cursor := floor
	// Snapshot bases: relocation mutates t.regions.
	bases := make([]mem.Addr, len(t.regions))
	for i, r := range t.regions {
		bases[i] = r.Base
	}
	for _, base := range bases {
		i := t.find(base)
		if i < 0 {
			return total, ErrUntracked
		}
		r := t.regions[i]
		dst := (cursor + mem.Addr(align-1)) &^ mem.Addr(align-1)
		if dst < r.Base {
			c, err := t.Relocate(m, r.Base, dst)
			total += c
			if err != nil {
				return total, err
			}
			cursor = dst + mem.Addr(r.Size)
		} else {
			cursor = r.Base + mem.Addr(r.Size)
		}
	}
	return total, nil
}

// Evacuate moves every tracked region, in address order, into a fresh
// arena starting at dst — a copying-collector-style migration. The
// destination range must be disjoint from every current region (it is
// checked), so sources and destinations never overlap. Returns total
// cycle cost.
func (t *Table) Evacuate(m Memory, dst mem.Addr, align uint64) (int64, error) {
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("carat: bad alignment %d", align)
	}
	// Compute the arena extent.
	var need uint64
	for _, r := range t.regions {
		need = (need + align - 1) &^ (align - 1)
		need += r.Size
	}
	end := dst + mem.Addr(need)
	for _, r := range t.regions {
		if r.Base < end && dst < r.Base+mem.Addr(r.Size) {
			return 0, fmt.Errorf("carat: evacuation arena overlaps live region at %#x", r.Base)
		}
	}
	var total int64
	cursor := dst
	bases := make([]mem.Addr, len(t.regions))
	for i, r := range t.regions {
		bases[i] = r.Base
	}
	for _, base := range bases {
		i := t.find(base)
		if i < 0 {
			return total, ErrUntracked
		}
		r := t.regions[i]
		d := (cursor + mem.Addr(align-1)) &^ mem.Addr(align-1)
		c, err := t.Relocate(m, r.Base, d)
		total += c
		if err != nil {
			return total, err
		}
		cursor = d + mem.Addr(r.Size)
	}
	return total, nil
}
