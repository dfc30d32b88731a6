// Package farmem implements §V-C's candidate blending application:
// sub-page-granularity transparent far memory. "Current far memory
// systems either operate at page granularity for transparent swapping to
// remote nodes or require programmer annotations tagging data structures
// as remotable. Compiler blending can automatically make these decisions
// and evacuate objects to remote memory transparently."
//
// Two managers are implemented over the same local/remote cost model:
//
//   - PageSwapper: the page-granularity baseline (Infiniswap/Fastswap
//     shape): 4 KiB pages, LRU, whole-page faults and writebacks.
//   - ObjectBlender: the interwoven design: the compiler's allocation
//     tracking (the CARAT machinery) gives the runtime exact object
//     boundaries; temperatures decide placement; only objects move.
//
// The headline effect is transfer amplification: with small objects and
// a skewed working set, pages drag kilobytes of cold neighbors across
// the network per hot access, while the blender moves only what is used.
package farmem

import (
	"sort"

	"repro/internal/mem"
)

// Config is the shared tier cost model.
type Config struct {
	// LocalCapacity is the local-tier size in bytes.
	LocalCapacity uint64
	// LocalAccess is the local access cost in cycles.
	LocalAccess int64
	// RemoteRTT is the far-memory round-trip in cycles (RDMA-class).
	RemoteRTT int64
	// PerKB is the transfer cost per KiB moved, in cycles.
	PerKB int64
	// PageSize is the baseline's granularity.
	PageSize uint64
}

// DefaultConfig returns an RDMA-class far-memory configuration on the
// 1 GHz reference clock: 3 µs RTT, ~12.5 GB/s.
func DefaultConfig() Config {
	return Config{
		LocalCapacity: 1 << 20, // 1 MiB local
		LocalAccess:   80,
		RemoteRTT:     3000,
		PerKB:         80,
		PageSize:      4096,
	}
}

// Stats aggregate a run.
type Stats struct {
	Accesses     int64
	LocalHits    int64
	Faults       int64 // remote fetches
	Evictions    int64
	BytesIn      uint64 // bytes fetched from far memory
	BytesOut     uint64 // bytes written back to far memory
	StallCycles  int64  // cycles spent waiting on the far tier
	AccessCycles int64  // total access cycles including stalls
}

// MeanLatency returns average cycles per access.
func (s *Stats) MeanLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.AccessCycles) / float64(s.Accesses)
}

// Manager is a far-memory placement policy.
type Manager interface {
	// Register declares an allocated object.
	Register(base mem.Addr, size uint64)
	// Access touches one address (the object containing it) and
	// returns the access cost in cycles.
	Access(addr mem.Addr) int64
	// Stats returns the accumulated counters.
	Stats() *Stats
}

// ---------------------------------------------------------------------
// Page-granularity baseline.

type page struct {
	num   uint64
	local bool
	dirty bool
	// lru is the tick of the last touch. Eviction follows the resident
	// list, which is kept in descending lru order; tests check the
	// list's victims against a minimum-lru scan.
	lru int64
	// prev/next link the page into the resident list while local.
	prev, next *page
}

// PageSwapper is the page-granularity transparent-swapping baseline.
type PageSwapper struct {
	cfg   Config
	pages map[uint64]*page
	// resident is the sentinel of the list of local pages, most recently
	// used first: resident.next is the MRU page, resident.prev the LRU
	// one. Ticks are unique, so the list is exactly the resident pages
	// in descending lru order.
	resident   page
	localBytes uint64
	tick       int64
	st         Stats
}

// NewPageSwapper creates the baseline manager.
func NewPageSwapper(cfg Config) *PageSwapper {
	p := &PageSwapper{cfg: cfg, pages: make(map[uint64]*page)}
	p.resident.prev, p.resident.next = &p.resident, &p.resident
	return p
}

// pushFront links pg in as the most recently used resident page.
func (p *PageSwapper) pushFront(pg *page) {
	pg.prev, pg.next = &p.resident, p.resident.next
	pg.next.prev = pg
	p.resident.next = pg
}

// unlink removes pg from the resident list.
func (p *PageSwapper) unlink(pg *page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// Register is a no-op for pages: the first touch faults the page in
// (demand paging).
func (p *PageSwapper) Register(base mem.Addr, size uint64) {}

// Stats implements Manager.
func (p *PageSwapper) Stats() *Stats { return &p.st }

// Access implements Manager.
func (p *PageSwapper) Access(addr mem.Addr) int64 {
	p.tick++
	p.st.Accesses++
	num := uint64(addr) / p.cfg.PageSize
	pg := p.pages[num]
	if pg == nil {
		pg = &page{num: num}
		p.pages[num] = pg
	}
	if pg.local {
		pg.lru = p.tick
		p.unlink(pg)
		p.pushFront(pg)
		pg.dirty = true // conservative: treat touches as potential writes
		p.st.LocalHits++
		p.st.AccessCycles += p.cfg.LocalAccess
		return p.cfg.LocalAccess
	}
	// Fault: make room, then fetch the whole page.
	cost := p.cfg.RemoteRTT + int64(p.cfg.PageSize/1024+1)*p.cfg.PerKB
	p.st.Faults++
	p.st.BytesIn += p.cfg.PageSize
	for p.localBytes+p.cfg.PageSize > p.cfg.LocalCapacity {
		cost += p.evictLRU()
	}
	pg.local = true
	pg.lru = p.tick
	p.pushFront(pg)
	p.localBytes += p.cfg.PageSize
	p.st.StallCycles += cost
	total := cost + p.cfg.LocalAccess
	p.st.AccessCycles += total
	return total
}

// evictLRU pushes the least recently used resident page to the far
// tier, returning the writeback cost.
func (p *PageSwapper) evictLRU() int64 {
	victim := p.resident.prev
	if victim == &p.resident {
		return 0
	}
	p.unlink(victim)
	victim.local = false
	p.localBytes -= p.cfg.PageSize
	p.st.Evictions++
	if victim.dirty {
		victim.dirty = false
		p.st.BytesOut += p.cfg.PageSize
		// Writeback overlaps poorly with the fault in the swap path.
		return int64(p.cfg.PageSize/1024+1) * p.cfg.PerKB
	}
	return 0
}

// ---------------------------------------------------------------------
// Object-granularity blender.

type object struct {
	base  mem.Addr
	size  uint64
	local bool
	heat  int64
	lru   int64
}

// ObjectBlender is the compiler-blended manager: exact object
// boundaries from allocation tracking, temperature-driven placement,
// object-sized transfers.
type ObjectBlender struct {
	cfg        Config
	objects    []*object // sorted by base
	localBytes uint64
	tick       int64
	st         Stats
}

// NewObjectBlender creates the blended manager.
func NewObjectBlender(cfg Config) *ObjectBlender {
	return &ObjectBlender{cfg: cfg}
}

// Stats implements Manager.
func (o *ObjectBlender) Stats() *Stats { return &o.st }

// Register implements Manager: new objects start local (they were just
// allocated and written).
func (o *ObjectBlender) Register(base mem.Addr, size uint64) {
	i := sort.Search(len(o.objects), func(i int) bool { return o.objects[i].base > base })
	obj := &object{base: base, size: size, local: true, lru: o.tick}
	o.objects = append(o.objects, nil)
	copy(o.objects[i+1:], o.objects[i:])
	o.objects[i] = obj
	o.localBytes += size
	for o.localBytes > o.cfg.LocalCapacity {
		o.evictColdest()
	}
}

func (o *ObjectBlender) find(addr mem.Addr) *object {
	i := sort.Search(len(o.objects), func(i int) bool { return o.objects[i].base > addr })
	if i == 0 {
		return nil
	}
	obj := o.objects[i-1]
	if addr >= obj.base && uint64(addr-obj.base) < obj.size {
		return obj
	}
	return nil
}

// Access implements Manager.
func (o *ObjectBlender) Access(addr mem.Addr) int64 {
	o.tick++
	o.st.Accesses++
	obj := o.find(addr)
	if obj == nil {
		// Untracked: treat as local scratch.
		o.st.LocalHits++
		o.st.AccessCycles += o.cfg.LocalAccess
		return o.cfg.LocalAccess
	}
	obj.heat++
	obj.lru = o.tick
	if obj.local {
		o.st.LocalHits++
		o.st.AccessCycles += o.cfg.LocalAccess
		return o.cfg.LocalAccess
	}
	// Object fault: fetch exactly the object.
	cost := o.cfg.RemoteRTT + int64(obj.size/1024+1)*o.cfg.PerKB
	o.st.Faults++
	o.st.BytesIn += obj.size
	obj.local = true
	o.localBytes += obj.size
	for o.localBytes > o.cfg.LocalCapacity {
		cost += o.evictColdest()
	}
	o.st.StallCycles += cost
	total := cost + o.cfg.LocalAccess
	o.st.AccessCycles += total
	return total
}

// evictColdest pushes the coldest local object to the far tier. The
// temperature combines recency and frequency (heat decays by halving at
// each eviction scan, so stale heat fades).
func (o *ObjectBlender) evictColdest() int64 {
	var victim *object
	for _, obj := range o.objects {
		if !obj.local {
			continue
		}
		obj.heat /= 2
		if victim == nil || obj.heat < victim.heat ||
			(obj.heat == victim.heat && obj.lru < victim.lru) {
			victim = obj
		}
	}
	if victim == nil {
		return 0
	}
	victim.local = false
	o.localBytes -= victim.size
	o.st.Evictions++
	o.st.BytesOut += victim.size
	return int64(victim.size/1024+1) * o.cfg.PerKB
}
