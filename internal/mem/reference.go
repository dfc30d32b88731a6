package mem

import "fmt"

// ReferenceBuddy is the original map-based buddy allocator, kept as the
// semantic oracle for the intrusive fast path (mirroring
// interp.ReferenceCall): map[offset]order for allocations, slice free
// lists with swap-with-last removal, and a (offset,order)→free map for
// coalescing checks. The differential fuzzer (FuzzBuddyVsReference)
// drives both engines with identical traces and requires identical
// addresses, errors, and stats at every step.
type ReferenceBuddy struct {
	base     Addr
	size     uint64
	minOrder uint // log2 of smallest block
	maxOrder uint // log2 of the whole region

	// freeLists[o] holds the offsets (relative to base) of free blocks
	// of order o.
	freeLists [][]uint64
	// allocated maps offset -> order for live allocations.
	allocated map[uint64]uint
	// blockFree tracks which (offset,order) buddies are free for
	// coalescing checks, keyed by freeKey. The flat key avoids the
	// per-offset inner map (and its allocation on every free) that a
	// two-level map would cost.
	blockFree map[uint64]bool

	// Stats.
	FreeBytes    uint64
	UsedBytes    uint64
	Allocs       uint64
	Frees        uint64
	Splits       uint64
	Coalesces    uint64
	PeakUsed     uint64
	FailedAllocs uint64

	// Inject mirrors Buddy.Inject: consulted at the top of Alloc, before
	// any mutation, so the differential tests can drive both engines
	// under an identical fault schedule and require identical outcomes.
	Inject func(n uint64) error
}

// NewReferenceBuddy creates a reference allocator managing size bytes
// starting at base. size must be a power of two and at least 1<<minOrder.
func NewReferenceBuddy(base Addr, size uint64, minOrder uint) (*ReferenceBuddy, error) {
	if size == 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("mem: buddy size %d not a power of two", size)
	}
	maxOrder := uint(0)
	for 1<<maxOrder < size {
		maxOrder++
	}
	if maxOrder < minOrder {
		return nil, fmt.Errorf("mem: region smaller than min block")
	}
	b := &ReferenceBuddy{
		base:      base,
		size:      size,
		minOrder:  minOrder,
		maxOrder:  maxOrder,
		freeLists: make([][]uint64, maxOrder+1),
		allocated: make(map[uint64]uint),
		blockFree: make(map[uint64]bool),
		FreeBytes: size,
	}
	b.pushFree(0, maxOrder)
	return b, nil
}

// freeKey packs (offset, order) into one map key. Orders are < 64, so
// six low bits suffice; offsets stay well clear of the top six bits for
// any realistic region size.
func freeKey(off uint64, order uint) uint64 {
	return off<<6 | uint64(order)
}

func (b *ReferenceBuddy) pushFree(off uint64, order uint) {
	b.freeLists[order] = append(b.freeLists[order], off)
	b.blockFree[freeKey(off, order)] = true
}

// popFreeAt removes a specific free block (off, order); returns false if
// it is not free at that order.
func (b *ReferenceBuddy) popFreeAt(off uint64, order uint) bool {
	k := freeKey(off, order)
	if !b.blockFree[k] {
		return false
	}
	delete(b.blockFree, k)
	list := b.freeLists[order]
	for i, o := range list {
		if o == off {
			list[i] = list[len(list)-1]
			b.freeLists[order] = list[:len(list)-1]
			return true
		}
	}
	return false
}

func (b *ReferenceBuddy) popAnyFree(order uint) (uint64, bool) {
	list := b.freeLists[order]
	if len(list) == 0 {
		return 0, false
	}
	off := list[len(list)-1]
	b.freeLists[order] = list[:len(list)-1]
	delete(b.blockFree, freeKey(off, order))
	return off, true
}

// orderFor returns the smallest order whose block size fits n bytes.
func (b *ReferenceBuddy) orderFor(n uint64) uint {
	if n > 1<<63 {
		return 64 // unsatisfiable; Alloc turns this into ErrOutOfMemory
	}
	o := b.minOrder
	for uint64(1)<<o < n {
		o++
	}
	return o
}

// BlockSize returns the allocation granularity for a request of n bytes.
func (b *ReferenceBuddy) BlockSize(n uint64) uint64 { return 1 << b.orderFor(n) }

// Alloc allocates at least n bytes and returns the block address.
func (b *ReferenceBuddy) Alloc(n uint64) (Addr, error) {
	if n == 0 {
		n = 1
	}
	if b.Inject != nil {
		if err := b.Inject(n); err != nil {
			b.FailedAllocs++
			return 0, err
		}
	}
	order := b.orderFor(n)
	if order > b.maxOrder {
		b.FailedAllocs++
		return 0, ErrOutOfMemory
	}
	// Find the smallest free block at or above the needed order.
	cur := order
	for cur <= b.maxOrder {
		if len(b.freeLists[cur]) > 0 {
			break
		}
		cur++
	}
	if cur > b.maxOrder {
		b.FailedAllocs++
		return 0, ErrOutOfMemory
	}
	off, _ := b.popAnyFree(cur)
	// Split down to the needed order.
	for cur > order {
		cur--
		b.Splits++
		buddy := off + (1 << cur)
		b.pushFree(buddy, cur)
	}
	b.allocated[off] = order
	sz := uint64(1) << order
	b.FreeBytes -= sz
	b.UsedBytes += sz
	if b.UsedBytes > b.PeakUsed {
		b.PeakUsed = b.UsedBytes
	}
	b.Allocs++
	return b.base + Addr(off), nil
}

// Free releases a previously allocated block, coalescing with its buddy
// chain where possible.
func (b *ReferenceBuddy) Free(a Addr) error {
	off := uint64(a - b.base)
	order, ok := b.allocated[off]
	if !ok {
		return ErrBadFree
	}
	delete(b.allocated, off)
	sz := uint64(1) << order
	b.FreeBytes += sz
	b.UsedBytes -= sz
	b.Frees++
	// Coalesce upward.
	for order < b.maxOrder {
		buddy := off ^ (1 << order)
		if !b.popFreeAt(buddy, order) {
			break
		}
		b.Coalesces++
		if buddy < off {
			off = buddy
		}
		order++
	}
	b.pushFree(off, order)
	return nil
}

// SizeOf returns the block size backing the allocation at a.
func (b *ReferenceBuddy) SizeOf(a Addr) (uint64, bool) {
	order, ok := b.allocated[uint64(a-b.base)]
	if !ok {
		return 0, false
	}
	return 1 << order, true
}

// Base returns the region base address.
func (b *ReferenceBuddy) Base() Addr { return b.base }

// Size returns the managed region size in bytes.
func (b *ReferenceBuddy) Size() uint64 { return b.size }

// LiveAllocs returns the number of outstanding allocations.
func (b *ReferenceBuddy) LiveAllocs() int { return len(b.allocated) }

// LargestFree returns the size of the largest free block.
func (b *ReferenceBuddy) LargestFree() uint64 {
	for o := int(b.maxOrder); o >= int(b.minOrder); o-- {
		if len(b.freeLists[o]) > 0 {
			return 1 << uint(o)
		}
	}
	return 0
}

// Stats returns a snapshot of the allocator's counters.
func (b *ReferenceBuddy) Stats() BuddyStats {
	return BuddyStats{
		FreeBytes: b.FreeBytes, UsedBytes: b.UsedBytes,
		Allocs: b.Allocs, Frees: b.Frees,
		Splits: b.Splits, Coalesces: b.Coalesces,
		PeakUsed: b.PeakUsed, FailedAllocs: b.FailedAllocs,
		Live: len(b.allocated),
	}
}

// CheckInvariants validates internal consistency. In addition to
// alignment and byte accounting, it cross-checks freeLists against
// blockFree in both directions — every list entry must be marked free in
// blockFree and every blockFree key must appear on exactly one list —
// closing the blind spot where the two structures could silently
// disagree.
func (b *ReferenceBuddy) CheckInvariants() error {
	var free uint64
	listed := 0
	for o, list := range b.freeLists {
		for _, off := range list {
			if off%(1<<uint(o)) != 0 {
				return fmt.Errorf("free block 0x%x misaligned for order %d", off, o)
			}
			if !b.blockFree[freeKey(off, uint(o))] {
				return fmt.Errorf("free-list entry 0x%x (order %d) not marked free in blockFree", off, o)
			}
			free += 1 << uint(o)
			listed++
		}
	}
	if listed != len(b.blockFree) {
		return fmt.Errorf("free lists hold %d blocks but blockFree marks %d", listed, len(b.blockFree))
	}
	seen := make(map[uint64]bool, listed)
	for _, list := range b.freeLists {
		for _, off := range list {
			if seen[off] {
				return fmt.Errorf("block 0x%x appears on more than one free list", off)
			}
			seen[off] = true
		}
	}
	var used uint64
	for off, o := range b.allocated { // detvet:ok — validation only: each block is checked alone and used is a commutative sum
		if off%(1<<o) != 0 {
			return fmt.Errorf("allocated block 0x%x misaligned for order %d", off, o)
		}
		if seen[off] {
			return fmt.Errorf("block 0x%x both allocated and on a free list", off)
		}
		used += 1 << o
	}
	if free != b.FreeBytes {
		return fmt.Errorf("free bytes %d != accounted %d", free, b.FreeBytes)
	}
	if used != b.UsedBytes {
		return fmt.Errorf("used bytes %d != accounted %d", used, b.UsedBytes)
	}
	if free+used != b.size {
		return fmt.Errorf("free %d + used %d != size %d", free, used, b.size)
	}
	return nil
}
