// Package mem implements the memory-management substrate described in the
// paper's Nautilus background (§III): buddy-system allocators selected per
// NUMA zone, identity-mapped paging with the largest possible page size,
// and a TLB model that shows why that design makes TLB misses "extremely
// rare ... and, indeed, if the TLB entries can cover the physical address
// space of the machine, do not occur at all after startup".
//
// The allocator has two engines with address-for-address identical
// behavior (mirroring internal/interp's fast/reference split):
//
//   - Buddy (this file) is the fast path: intrusive O(log n) metadata —
//     per-block entries holding order, a state byte, and doubly-linked
//     free-list links, found by array indexing from offset>>minOrder —
//     so Alloc, Free, and coalescing do zero map operations, zero heap
//     allocations steady-state, and no scans. The metadata grows with
//     the blocks a run touches, not with the region.
//   - ReferenceBuddy (reference.go) is the original map-based
//     implementation, kept as the semantic oracle for the differential
//     fuzzer (FuzzBuddyVsReference).
//
// CPUCache (cpucache.go) adds a concurrent per-CPU magazine front-end
// over a shared zone, the partitioned-caching design per-CPU kernel
// allocators use.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("mem: out of memory")

// ErrBadFree is returned for frees of addresses that were never allocated.
var ErrBadFree = errors.New("mem: free of unallocated address")

// Addr is a simulated physical address.
type Addr uint64

// Block metadata lives in two tiers, each grown as blocks are touched
// rather than sized to the region. Entry idx = offset>>minOrder names a
// block head.
//
//   - A block of order below pageOrder (minOrder+metaPageBits) is smaller
//     than the span of one metadata page. Its entry lives in the low
//     tier, at pages[idx>>metaPageBits][idx&metaPageMask]; a page
//     materializes when a small block first has its head in it.
//   - A block of order o >= pageOrder spans whole pages. Its entry lives
//     in the high tier, in order o's own table at idx>>(o-minOrder).
//
// A fresh region's first Alloc splits the region down to one free block
// at every order. In the high tier each of those is entry 1 of its
// order's table, so a sparsely used region (a fresh 256 MiB interpreter
// heap with a few live blocks) costs one low page and a few two-entry
// tables, not a page for every high-order free block.
const (
	metaPageBits = 10
	metaPageLen  = 1 << metaPageBits
	metaPageMask = metaPageLen - 1
)

// metaPage is one low-tier page. As an array, indexing it with
// idx&metaPageMask needs no bounds check.
type metaPage [metaPageLen]blockMeta

// Block-head states. A meta entry whose offset is not the head of a
// current block stays blockInterior.
const (
	blockInterior uint8 = iota
	blockFree
	blockAllocated
)

// blockMeta is the intrusive per-block metadata: free-list links (meta
// indexes, -1 = none), the block's order, and its state.
type blockMeta struct {
	prev, next int32
	order      uint8
	state      uint8
}

// noBlock is the nil link value.
const noBlock = int32(-1)

// BuddyStats is a copyable snapshot of an allocator's counters, safe to
// read outside any lock that guards the allocator itself.
type BuddyStats struct {
	FreeBytes    uint64
	UsedBytes    uint64
	Allocs       uint64
	Frees        uint64
	Splits       uint64
	Coalesces    uint64
	PeakUsed     uint64
	FailedAllocs uint64
	Live         int
}

// Buddy is a binary-buddy allocator over a contiguous region. It is the
// allocator Nautilus uses for each memory zone: power-of-two blocks,
// split on demand, coalesced on free. This is the fast engine; see the
// package comment for the fast/reference split.
type Buddy struct {
	base     Addr
	size     uint64
	minOrder uint // log2 of smallest block
	maxOrder uint // log2 of the whole region

	// pages is the low tier and high the high tier of the metadata (see
	// metaPageBits): high[o-pageOrder] is order o's table. Both grow on
	// first touch. A low page never moves once made; a high table may
	// move when its order's table grows, so callers hold no entry
	// pointer across a metaEnsure of the same order.
	pages     []*metaPage
	high      [][]blockMeta
	pageOrder uint
	// freeHead[o] is the meta index of the first free block of order o
	// (noBlock if empty); freeMask bit o mirrors non-emptiness so Alloc
	// finds the smallest adequate order with one TrailingZeros64.
	freeHead []int32
	freeMask uint64
	live     int

	// Stats.
	FreeBytes    uint64
	UsedBytes    uint64
	Allocs       uint64
	Frees        uint64
	Splits       uint64
	Coalesces    uint64
	PeakUsed     uint64
	FailedAllocs uint64

	// Inject, when non-nil, is consulted at the top of Alloc, before
	// any state is mutated; a non-nil return fails the allocation with
	// that error (counted in FailedAllocs, like an organic failure).
	// Fault-injection harnesses (internal/chaos) use it to model
	// transient failure and exhaustion against an allocator whose
	// structure is guaranteed consistent at the injection point, so
	// CheckInvariants may run from inside the hook.
	Inject func(n uint64) error
}

// NewBuddy creates an allocator managing size bytes starting at base.
// size must be a power of two and at least 1<<minOrder.
func NewBuddy(base Addr, size uint64, minOrder uint) (*Buddy, error) {
	if size == 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("mem: buddy size %d not a power of two", size)
	}
	maxOrder := uint(bits.Len64(size) - 1)
	if maxOrder < minOrder {
		return nil, fmt.Errorf("mem: region smaller than min block")
	}
	nIdx := size >> minOrder
	if nIdx > 1<<31 {
		return nil, fmt.Errorf("mem: region of %d min blocks exceeds intrusive metadata index space", nIdx)
	}
	b := &Buddy{
		base:      base,
		size:      size,
		minOrder:  minOrder,
		maxOrder:  maxOrder,
		pageOrder: minOrder + metaPageBits,
		freeHead:  make([]int32, maxOrder+1),
	}
	if maxOrder >= b.pageOrder {
		b.high = make([][]blockMeta, maxOrder-b.pageOrder+1)
	}
	b.Reset()
	return b, nil
}

// Reset returns the allocator to the state NewBuddy left it in: the
// whole region one free block and every counter zero, so the next
// operations return the same addresses as on a new allocator. The
// metadata it has materialized is zeroed and kept, so Reset costs time
// in proportion to what the allocator touched, and a reused allocator
// allocates nothing for storage it already holds. Inject is kept.
func (b *Buddy) Reset() {
	for _, pg := range b.pages {
		if pg != nil {
			*pg = metaPage{}
		}
	}
	for _, t := range b.high {
		clear(t)
	}
	for i := range b.freeHead {
		b.freeHead[i] = noBlock
	}
	b.freeMask, b.live = 0, 0
	b.FreeBytes, b.UsedBytes, b.PeakUsed = b.size, 0, 0
	b.Allocs, b.Frees, b.Splits, b.Coalesces, b.FailedAllocs = 0, 0, 0, 0, 0
	b.pushFree(0, b.maxOrder)
}

// lowAt returns the low-tier entry for idx, or nil if its page was
// never materialized.
func (b *Buddy) lowAt(idx uint64) *blockMeta {
	if pi := idx >> metaPageBits; pi < uint64(len(b.pages)) {
		if pg := b.pages[pi]; pg != nil {
			return &pg[idx&metaPageMask]
		}
	}
	return nil
}

// metaAt returns the entry for a block of the given order headed at
// idx, or nil if that storage was never materialized (no block of that
// tier has had its head there).
func (b *Buddy) metaAt(idx uint64, order uint) *blockMeta {
	if order < b.pageOrder {
		return b.lowAt(idx)
	}
	if t, i := b.high[order-b.pageOrder], idx>>(order-b.minOrder); i < uint64(len(t)) {
		return &t[i]
	}
	return nil
}

// metaEnsure returns the entry for a block of the given order headed
// at idx, materializing its storage.
func (b *Buddy) metaEnsure(idx uint64, order uint) *blockMeta {
	if e := b.metaAt(idx, order); e != nil {
		return e
	}
	if order >= b.pageOrder {
		h, i := order-b.pageOrder, idx>>(order-b.minOrder)
		b.high[h] = append(b.high[h], make([]blockMeta, i+1-uint64(len(b.high[h])))...)
		return &b.high[h][i]
	}
	pi := idx >> metaPageBits
	if pi >= uint64(len(b.pages)) {
		b.pages = append(b.pages, make([]*metaPage, pi+1-uint64(len(b.pages)))...)
	}
	b.pages[pi] = new(metaPage)
	return &b.pages[pi][idx&metaPageMask]
}

// headAt returns the entry of the block headed at idx, whatever its
// order, or nil if no block starts there. A small block's entry is one
// probe; a block spanning whole pages is found by trying each high
// order idx is aligned to.
func (b *Buddy) headAt(idx uint64) *blockMeta {
	if e := b.lowAt(idx); e != nil && e.state != blockInterior {
		return e
	}
	for o := b.pageOrder; o <= b.maxOrder && idx&(uint64(1)<<(o-b.minOrder)-1) == 0; o++ {
		if e := b.metaAt(idx, o); e != nil && e.state != blockInterior {
			return e
		}
	}
	return nil
}

// pushFree links the block at idx onto the head of order's free list.
func (b *Buddy) pushFree(idx uint64, order uint) {
	e := b.metaEnsure(idx, order)
	e.state = blockFree
	e.order = uint8(order)
	e.prev = noBlock
	e.next = b.freeHead[order]
	if e.next != noBlock {
		b.metaAt(uint64(e.next), order).prev = int32(idx)
	}
	b.freeHead[order] = int32(idx)
	b.freeMask |= 1 << order
}

// popHead unlinks the head of order's free list, which the caller has
// checked is non-empty, and returns its index and entry.
func (b *Buddy) popHead(order uint) (uint64, *blockMeta) {
	idx := uint64(b.freeHead[order])
	e := b.metaAt(idx, order)
	b.freeHead[order] = e.next
	if e.next != noBlock {
		b.metaAt(uint64(e.next), order).prev = noBlock
	} else {
		b.freeMask &^= 1 << order
	}
	e.state = blockInterior
	return idx, e
}

// removeFreeAt detaches the free block at idx (its meta entry e, on
// order's list) for coalescing. It preserves the reference engine's
// swap-with-last slice discipline — the list head moves into the removed
// block's position — so both engines return identical address sequences
// for any operation trace (the differential fuzzer asserts this).
func (b *Buddy) removeFreeAt(idx uint64, e *blockMeta, order uint) {
	h := b.freeHead[order]
	if uint64(h) == idx {
		b.freeHead[order] = e.next
		if e.next != noBlock {
			b.metaAt(uint64(e.next), order).prev = noBlock
		} else {
			b.freeMask &^= 1 << order
		}
		e.state = blockInterior
		return
	}
	// Detach the head, then splice it into idx's position. If idx was
	// directly after the head, detaching updates e.prev to noBlock and
	// the splice below reinstalls the head correctly.
	he := b.metaAt(uint64(h), order)
	b.freeHead[order] = he.next
	if he.next != noBlock {
		b.metaAt(uint64(he.next), order).prev = noBlock
	}
	he.prev = e.prev
	he.next = e.next
	if e.prev != noBlock {
		b.metaAt(uint64(e.prev), order).next = h
	} else {
		b.freeHead[order] = h
	}
	if e.next != noBlock {
		b.metaAt(uint64(e.next), order).prev = h
	}
	e.state = blockInterior
}

// orderFor returns the smallest order whose block size fits n bytes.
func (b *Buddy) orderFor(n uint64) uint {
	if n <= 1<<b.minOrder {
		return b.minOrder
	}
	if n > 1<<63 {
		return 64 // unsatisfiable; Alloc turns this into ErrOutOfMemory
	}
	return uint(bits.Len64(n - 1))
}

// BlockSize returns the allocation granularity for a request of n bytes.
func (b *Buddy) BlockSize(n uint64) uint64 { return 1 << b.orderFor(n) }

// Alloc allocates at least n bytes and returns the block address.
func (b *Buddy) Alloc(n uint64) (Addr, error) {
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
	// Smallest free order at or above the needed one, in one bit scan.
	avail := b.freeMask >> order
	if avail == 0 {
		b.FailedAllocs++
		return 0, ErrOutOfMemory
	}
	cur := order + uint(bits.TrailingZeros64(avail))
	idx, e := b.popHead(cur)
	// The allocated block keeps the popped block's entry unless the
	// split moves it down from the high tier.
	moved := cur != order && cur >= b.pageOrder
	// Split down to the needed order, freeing each high half.
	for cur > order {
		cur--
		b.Splits++
		b.pushFree(idx+(uint64(1)<<(cur-b.minOrder)), cur)
	}
	if moved {
		e = b.metaEnsure(idx, order)
	}
	e.state = blockAllocated
	e.order = uint8(order)
	sz := uint64(1) << order
	b.FreeBytes -= sz
	b.UsedBytes += sz
	if b.UsedBytes > b.PeakUsed {
		b.PeakUsed = b.UsedBytes
	}
	b.Allocs++
	b.live++
	return b.base + Addr(idx<<b.minOrder), nil
}

// Free releases a previously allocated block, coalescing with its buddy
// chain where possible.
func (b *Buddy) Free(a Addr) error {
	if a < b.base {
		return ErrBadFree
	}
	off := uint64(a - b.base)
	if off >= b.size || off&((1<<b.minOrder)-1) != 0 {
		return ErrBadFree
	}
	idx := off >> b.minOrder
	e := b.headAt(idx)
	if e == nil || e.state != blockAllocated {
		return ErrBadFree
	}
	order := uint(e.order)
	e.state = blockInterior
	sz := uint64(1) << order
	b.FreeBytes += sz
	b.UsedBytes -= sz
	b.Frees++
	b.live--
	// Coalesce upward: absorb the buddy while it is free at our order.
	for order < b.maxOrder {
		budIdx := idx ^ (uint64(1) << (order - b.minOrder))
		be := b.metaAt(budIdx, order)
		if be == nil || be.state != blockFree || uint(be.order) != order {
			break
		}
		b.removeFreeAt(budIdx, be, order)
		b.Coalesces++
		if budIdx < idx {
			idx = budIdx
		}
		order++
	}
	b.pushFree(idx, order)
	return nil
}

// SizeOf returns the block size backing the allocation at a.
func (b *Buddy) SizeOf(a Addr) (uint64, bool) {
	if a < b.base {
		return 0, false
	}
	off := uint64(a - b.base)
	if off >= b.size || off&((1<<b.minOrder)-1) != 0 {
		return 0, false
	}
	e := b.headAt(off >> b.minOrder)
	if e == nil || e.state != blockAllocated {
		return 0, false
	}
	return 1 << uint(e.order), true
}

// Base returns the region base address.
func (b *Buddy) Base() Addr { return b.base }

// Size returns the managed region size in bytes.
func (b *Buddy) Size() uint64 { return b.size }

// LiveAllocs returns the number of outstanding allocations.
func (b *Buddy) LiveAllocs() int { return b.live }

// LargestFree returns the size of the largest free block — the metric
// that defragmentation (CARAT's memory mobility, §IV-A) improves.
func (b *Buddy) LargestFree() uint64 {
	if b.freeMask == 0 {
		return 0
	}
	return 1 << uint(bits.Len64(b.freeMask)-1)
}

// Stats returns a snapshot of the allocator's counters.
func (b *Buddy) Stats() BuddyStats {
	return BuddyStats{
		FreeBytes: b.FreeBytes, UsedBytes: b.UsedBytes,
		Allocs: b.Allocs, Frees: b.Frees,
		Splits: b.Splits, Coalesces: b.Coalesces,
		PeakUsed: b.PeakUsed, FailedAllocs: b.FailedAllocs,
		Live: b.live,
	}
}

// CheckInvariants validates internal consistency; used by property tests
// and the differential fuzzer. Beyond alignment and byte accounting, it
// cross-checks the free lists against the intrusive metadata in both
// directions: every list entry must be a block head marked free at the
// list's order with intact linkage, and every free-marked head reached
// by walking the region's block coverage must be present on its list.
func (b *Buddy) CheckInvariants() error {
	total := b.size >> b.minOrder
	onList := make(map[uint64]uint)
	for o := b.minOrder; o <= b.maxOrder; o++ {
		n := 0
		prev := noBlock
		for cur := b.freeHead[o]; cur != noBlock; {
			if n++; uint64(n) > total {
				return fmt.Errorf("order %d free list does not terminate", o)
			}
			idx := uint64(cur)
			if idx >= total {
				return fmt.Errorf("order %d free list holds out-of-range index %d", o, idx)
			}
			e := b.metaAt(idx, o)
			if e == nil {
				return fmt.Errorf("order %d free list references unmaterialized block 0x%x", o, idx<<b.minOrder)
			}
			if e.state != blockFree {
				return fmt.Errorf("free-list entry 0x%x (order %d) not marked free in metadata (state %d)", idx<<b.minOrder, o, e.state)
			}
			if uint(e.order) != o {
				return fmt.Errorf("free-list entry 0x%x on order-%d list has metadata order %d", idx<<b.minOrder, o, e.order)
			}
			if e.prev != prev {
				return fmt.Errorf("order %d free list linkage broken at 0x%x (prev %d, want %d)", o, idx<<b.minOrder, e.prev, prev)
			}
			if idx&((uint64(1)<<(o-b.minOrder))-1) != 0 {
				return fmt.Errorf("free block 0x%x misaligned for order %d", idx<<b.minOrder, o)
			}
			if _, dup := onList[idx]; dup {
				return fmt.Errorf("block 0x%x appears on more than one free list", idx<<b.minOrder)
			}
			onList[idx] = o
			prev = cur
			cur = e.next
		}
		if ((b.freeMask>>o)&1 == 1) != (b.freeHead[o] != noBlock) {
			return fmt.Errorf("freeMask bit %d disagrees with free list head", o)
		}
	}
	// Coverage walk: the region must partition exactly into block heads.
	var free, used uint64
	liveCount, freeHeads := 0, 0
	for idx := uint64(0); idx < total; {
		e := b.headAt(idx)
		if e == nil {
			return fmt.Errorf("no block head at 0x%x", idx<<b.minOrder)
		}
		o := uint(e.order)
		if o < b.minOrder || o > b.maxOrder {
			return fmt.Errorf("block 0x%x has impossible order %d", idx<<b.minOrder, o)
		}
		if idx&((uint64(1)<<(o-b.minOrder))-1) != 0 {
			return fmt.Errorf("block 0x%x misaligned for order %d", idx<<b.minOrder, o)
		}
		switch e.state {
		case blockFree:
			lo, ok := onList[idx]
			if !ok {
				return fmt.Errorf("block 0x%x marked free (order %d) but absent from its free list", idx<<b.minOrder, o)
			}
			if lo != o {
				return fmt.Errorf("block 0x%x free at order %d but listed at order %d", idx<<b.minOrder, o, lo)
			}
			free += 1 << o
			freeHeads++
		case blockAllocated:
			used += 1 << o
			liveCount++
		default:
			return fmt.Errorf("expected a block head at 0x%x, found interior metadata", idx<<b.minOrder)
		}
		idx += uint64(1) << (o - b.minOrder)
	}
	if freeHeads != len(onList) {
		return fmt.Errorf("free lists hold %d blocks, coverage found %d", len(onList), freeHeads)
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
	if liveCount != b.live {
		return fmt.Errorf("live allocations %d != accounted %d", liveCount, b.live)
	}
	return nil
}
