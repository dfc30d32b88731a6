package mem

// TLB is a set-associative translation lookaside buffer model with LRU
// replacement. It exists to quantify the paper's motivating limitation:
// "virtual memory in the form of paging ... demands the existence of TLBs
// and other hardware structures [which] have substantial overheads in
// time and energy" (§I) — and conversely why Nautilus's identity-mapped
// largest-page-size design makes misses vanish (§III).
type TLB struct {
	sets      int
	ways      int
	pageShift uint
	// entries[set][way] holds page numbers; lru[set][way] holds ages.
	entries [][]uint64
	valid   [][]bool
	lru     [][]uint64
	tick    uint64

	Hits   uint64
	Misses uint64
}

// NewTLB builds a TLB with the given geometry. pageShift is log2 of the
// page size (12 for 4 KiB, 21 for 2 MiB, 30 for 1 GiB).
func NewTLB(sets, ways int, pageShift uint) *TLB {
	if sets <= 0 || ways <= 0 {
		panic("mem: invalid TLB geometry")
	}
	t := &TLB{
		sets:      sets,
		ways:      ways,
		pageShift: pageShift,
		entries:   make([][]uint64, sets),
		valid:     make([][]bool, sets),
		lru:       make([][]uint64, sets),
	}
	for i := range t.entries {
		t.entries[i] = make([]uint64, ways)
		t.valid[i] = make([]bool, ways)
		t.lru[i] = make([]uint64, ways)
	}
	return t
}

// Reach returns the address-space bytes the TLB can map at once. If the
// Reach covers physical memory, misses stop after warm-up — the Nautilus
// property.
func (t *TLB) Reach() uint64 { return uint64(t.sets*t.ways) << t.pageShift }

// Access translates address a, returning true on hit. Misses install the
// translation (hardware page walk fill).
func (t *TLB) Access(a Addr) bool {
	t.tick++
	page := uint64(a) >> t.pageShift
	set := int(page % uint64(t.sets))
	es, vs, ls := t.entries[set], t.valid[set], t.lru[set]
	for w := 0; w < t.ways; w++ {
		if vs[w] && es[w] == page {
			ls[w] = t.tick
			t.Hits++
			return true
		}
	}
	t.Misses++
	// Fill: pick invalid or LRU way.
	victim := 0
	for w := 0; w < t.ways; w++ {
		if !vs[w] {
			victim = w
			break
		}
		if ls[w] < ls[victim] {
			victim = w
		}
	}
	es[victim] = page
	vs[victim] = true
	ls[victim] = t.tick
	return false
}

// Flush invalidates all entries (e.g. address-space switch without PCID).
func (t *TLB) Flush() {
	for s := range t.valid {
		for w := range t.valid[s] {
			t.valid[s][w] = false
		}
	}
}

// MissRate returns misses / accesses (0 if no accesses).
func (t *TLB) MissRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Misses) / float64(total)
}

// PagingMode describes how a stack maps memory.
type PagingMode int

const (
	// PagingDemand4K is the commodity stack: 4 KiB pages, demand paging,
	// page faults possible.
	PagingDemand4K PagingMode = iota
	// PagingIdentityLarge is the Nautilus design: identity mapping with
	// the largest possible page size, everything mapped at boot.
	PagingIdentityLarge
	// PagingNone is the CARAT design: no translation hardware at all;
	// all code runs on physical addresses and protection comes from the
	// compiler (§IV-A).
	PagingNone
)

// PagingCost models the translation overhead of a memory access stream.
type PagingCost struct {
	Mode     PagingMode
	TLB      *TLB  // nil for PagingNone
	WalkCost int64 // cycles per TLB miss (page table walk)
	// FaultCost is the page-fault cost for first-touch accesses under
	// demand paging.
	FaultCost int64
	touched   map[uint64]bool

	Faults      uint64
	TotalCycles int64
}

// NewPagingCost builds the cost model for a mode. walk and fault are the
// per-event cycle costs.
func NewPagingCost(mode PagingMode, tlb *TLB, walk, fault int64) *PagingCost {
	return &PagingCost{Mode: mode, TLB: tlb, WalkCost: walk, FaultCost: fault,
		touched: make(map[uint64]bool)}
}

// Access accounts one memory access at address a and returns its
// translation overhead in cycles (0 for PagingNone).
func (p *PagingCost) Access(a Addr) int64 {
	switch p.Mode {
	case PagingNone:
		return 0
	case PagingIdentityLarge:
		if p.TLB.Access(a) {
			return 0
		}
		p.TotalCycles += p.WalkCost
		return p.WalkCost
	default: // PagingDemand4K
		var c int64
		page := uint64(a) >> 12
		if !p.touched[page] {
			p.touched[page] = true
			p.Faults++
			c += p.FaultCost
		}
		if !p.TLB.Access(a) {
			c += p.WalkCost
		}
		p.TotalCycles += c
		return c
	}
}
