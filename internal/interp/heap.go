package interp

import (
	"repro/internal/mem"
)

// The word store is a sparse paged flat array: a top-level page table
// of lazily allocated fixed-size pages. A load or store is two array
// indexes (page table, then page) instead of the map probe the old
// map[mem.Addr]uint64 store paid on every memory instruction — the same
// pointer-chasing-vs-flat-layout argument the paper's Nautilus memory
// design makes, applied to our own simulated hardware.
const (
	heapPageBits  = 12                // 4096 words = 32 KiB per page
	heapPageWords = 1 << heapPageBits // words per page
	heapPageMask  = heapPageWords - 1
	// maxDirectPage bounds the direct page table: word addresses below
	// maxDirectPage<<heapPageBits (64 GiB of address space) index the
	// table directly; anything above spills into the overflow map so a
	// stray store to a huge address cannot balloon the table.
	maxDirectPage = 1 << 21
)

// Heap is the interpreter's memory: a buddy allocator for addresses plus
// word-granularity content storage in a sparse paged flat store. The
// allocator is mem.Buddy's intrusive fast engine, so every IR alloc/free
// is O(log n) with zero map operations and zero Go heap allocations.
type Heap struct {
	Buddy *mem.Buddy

	pages    [][]uint64          // direct page table, grown as pages are touched
	overflow map[uint64][]uint64 // pages at indexes >= maxDirectPage
	scratch  []uint64            // Move staging buffer (grow-only)
}

// NewHeap creates a heap of size bytes (power of two) based at base.
// The page table starts empty and grows to the highest page a run
// stores to, so a fresh heap costs what its first run touches.
func NewHeap(base mem.Addr, size uint64) (*Heap, error) {
	b, err := mem.NewBuddy(base, size, 6)
	if err != nil {
		return nil, err
	}
	return &Heap{Buddy: b}, nil
}

// Reset returns the heap to the state NewHeap left it in: every word
// zero and the allocator fresh (mem.Buddy.Reset), so the next run sees
// the same addresses and Stats as on a new heap. Pages already touched
// are zeroed and kept for that run, so Reset costs time in proportion
// to the pages touched and a rerun of the same program allocates no
// pages.
func (h *Heap) Reset() {
	h.Buddy.Reset()
	for _, pg := range h.pages {
		clear(pg)
	}
	clear(h.overflow)
}

// Alloc allocates n bytes.
func (h *Heap) Alloc(n uint64) (mem.Addr, error) { return h.Buddy.Alloc(n) }

// Free releases an allocation.
func (h *Heap) Free(a mem.Addr) error { return h.Buddy.Free(a) }

// Load reads the 8-byte word at a (aligned down). Untouched memory
// reads as zero. The in-table hit path is small enough to inline into
// the interpreter loops; misses go through loadSlow.
func (h *Heap) Load(a mem.Addr) uint64 {
	w := uint64(a) >> 3
	pi := w >> heapPageBits
	if pi < uint64(len(h.pages)) {
		if pg := h.pages[pi]; pg != nil {
			return pg[w&heapPageMask]
		}
		return 0
	}
	return h.loadSlow(pi, w)
}

func (h *Heap) loadSlow(pi, w uint64) uint64 {
	if pi < maxDirectPage {
		return 0
	}
	if pg := h.overflow[pi]; pg != nil {
		return pg[w&heapPageMask]
	}
	return 0
}

// Store writes the 8-byte word at a (aligned down), allocating the
// containing page on first touch. Like Load, the hit path inlines and
// first-touch/overflow handling lives in storeSlow.
func (h *Heap) Store(a mem.Addr, v uint64) {
	w := uint64(a) >> 3
	pi := w >> heapPageBits
	if pi < uint64(len(h.pages)) {
		if pg := h.pages[pi]; pg != nil {
			pg[w&heapPageMask] = v
			return
		}
	}
	h.storeSlow(pi, w, v)
}

func (h *Heap) storeSlow(pi, w uint64, v uint64) {
	if pi < maxDirectPage {
		if pi >= uint64(len(h.pages)) {
			h.pages = append(h.pages, make([][]uint64, pi+1-uint64(len(h.pages)))...)
		}
		pg := make([]uint64, heapPageWords)
		h.pages[pi] = pg
		pg[w&heapPageMask] = v
		return
	}
	if h.overflow == nil {
		h.overflow = make(map[uint64][]uint64)
	}
	pg := h.overflow[pi]
	if pg == nil {
		pg = make([]uint64, heapPageWords)
		h.overflow[pi] = pg
	}
	pg[w&heapPageMask] = v
}

// Move copies n bytes of content from src to dst (CARAT region motion)
// and clears the source words. n is rounded up to whole 8-byte words (a
// trailing partial word moves as a full word, matching the
// word-granularity store). Overlapping regions are safe: the copy is
// staged through a scratch buffer, so dst always receives src's
// original content, and only source words outside the destination range
// end up cleared. Move(src, src, n) is therefore a no-op.
func (h *Heap) Move(src, dst mem.Addr, n uint64) {
	words := int((n + 7) / 8)
	if words == 0 || src == dst {
		return
	}
	if cap(h.scratch) < words {
		h.scratch = make([]uint64, words)
	}
	s := h.scratch[:words]
	for i := 0; i < words; i++ {
		s[i] = h.Load(src + mem.Addr(i*8))
	}
	for i := 0; i < words; i++ {
		h.Store(src+mem.Addr(i*8), 0)
	}
	for i := 0; i < words; i++ {
		h.Store(dst+mem.Addr(i*8), s[i])
	}
}

// Snapshot returns every non-zero word keyed by its (aligned) address.
// Zero words are indistinguishable from untouched memory, so two heaps
// with equal snapshots are observationally identical. Differential
// tests use this to compare final heap states across interpreter paths.
func (h *Heap) Snapshot() map[mem.Addr]uint64 {
	out := make(map[mem.Addr]uint64)
	collect := func(pi uint64, pg []uint64) {
		base := pi << heapPageBits
		for i, v := range pg {
			if v != 0 {
				out[mem.Addr((base+uint64(i))<<3)] = v
			}
		}
	}
	for pi, pg := range h.pages {
		if pg != nil {
			collect(uint64(pi), pg)
		}
	}
	for pi, pg := range h.overflow { // detvet:ok — fills a keyed map, order-independent
		collect(pi, pg)
	}
	return out
}
