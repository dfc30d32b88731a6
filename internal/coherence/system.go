package coherence

import (
	"math/bits"
	"sort"

	"repro/internal/mem"
	"repro/internal/model"
)

// SharingClass is the region annotation that flows "from the higher
// levels of the stack" (§V-B): the language/runtime tells the hardware
// what sharing pattern a region has, and the protocol specializes.
type SharingClass uint8

// Sharing classes.
const (
	// ClassDefault: full reactive MESI with directory.
	ClassDefault SharingClass = iota
	// ClassPrivate: thread-private data; coherence deactivated entirely
	// (no directory state, no invalidations — the [21] observation that
	// "thread-private data are tracked in the coherence protocol, even
	// though there are no other sharers").
	ClassPrivate
	// ClassReadOnly: immutable after initialization; replicas live in
	// any cache without tracking.
	ClassReadOnly
	// ClassProducerConsumer: data flows one way between known cores;
	// transfers are steered directly producer→consumer without the
	// "third node (the directory) that is often located far away".
	ClassProducerConsumer
)

// String names the class.
func (c SharingClass) String() string {
	switch c {
	case ClassPrivate:
		return "private"
	case ClassReadOnly:
		return "read-only"
	case ClassProducerConsumer:
		return "producer-consumer"
	default:
		return "default"
	}
}

// Region is a classified address range.
type Region struct {
	Base  mem.Addr
	Size  uint64
	Class SharingClass
	// Producer is the producing core for ClassProducerConsumer.
	Producer int
}

// dirRec is one directory record, 16 bytes, inline in dirTable's array.
// It holds no pointer, so the collector never scans the table. Its
// sharer words live in dirTable.words at the record's index.
type dirRec struct {
	key  uint64 // line+1; 0 marks an empty slot, so line 0 needs no special case
	meta uint64 // owner+1 (0: no owner) | sharer count << 16 | index << 32
}

// dirEntry is a view of one directory record: r is the record and
// sharers its sharer bitset, one bit per core. A view stays valid until
// the next insert into its table.
type dirEntry struct {
	r       *dirRec
	sharers []uint64
}

// owner returns the core holding the line in M or E, or -1.
func (d dirEntry) owner() int { return int(uint16(d.r.meta)) - 1 }

// setOwner records core (or -1) as the owner.
func (d dirEntry) setOwner(core int) {
	d.r.meta = d.r.meta&^0xFFFF | uint64(uint16(core+1))
}

// count returns the number of sharers.
func (d dirEntry) count() int { return int(uint16(d.r.meta >> 16)) }

// has reports whether core is a sharer.
func (d dirEntry) has(core int) bool {
	return d.sharers[core>>6]&(1<<(core&63)) != 0
}

// add makes core a sharer.
func (d dirEntry) add(core int) {
	w, b := &d.sharers[core>>6], uint64(1)<<(core&63)
	if *w&b == 0 {
		*w |= b
		d.r.meta += 1 << 16
	}
}

// remove drops core from the sharers.
func (d dirEntry) remove(core int) {
	w, b := &d.sharers[core>>6], uint64(1)<<(core&63)
	if *w&b != 0 {
		*w &^= b
		d.r.meta -= 1 << 16
	}
}

// only makes core the sole sharer.
func (d dirEntry) only(core int) {
	clear(d.sharers)
	d.sharers[core>>6] = 1 << (core & 63)
	d.r.meta = d.r.meta&^0xFFFF0000 | 1<<16
}

// invalidees calls fn, in ascending core order, for every core that
// must drop the line when keeper takes it exclusively: each sharer
// other than keeper, and the owner when it is not a sharer (merged into
// the ascending walk). Energy sums are order-sensitive floats, so the
// order is part of the output.
func (d dirEntry) invalidees(keeper int, fn func(core int)) {
	owner := -1
	if o := d.owner(); o >= 0 && o != keeper && !d.has(o) {
		owner = o
	}
	for wi, w := range d.sharers {
		for w != 0 {
			sh := wi<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			if owner >= 0 && owner < sh {
				fn(owner)
				owner = -1
			}
			if sh != keeper {
				fn(sh)
			}
		}
	}
	if owner >= 0 {
		fn(owner)
	}
}

// dirTable maps lines to their directory records: open addressing with
// linear probing over a power-of-two array of records, kept at most
// half full. Records are never removed. Each record's sharer words are
// carved, in insertion order, from chunks that never move, so growth
// copies only the 16-byte records and probing stays as dense at 1024
// cores (16 words) as at 24.
type dirTable struct {
	recs  []dirRec
	words [][]uint64 // wordChunk records' sharer words per chunk
	width int        // sharer words per record
	shift uint       // 64 - log2(len(recs)): the slot index is the hash's top bits
	n     int
}

const (
	// dirTableMin is a fresh table's slot count.
	dirTableMin = 256
	// wordChunk is how many records' sharer words one chunk holds.
	wordChunk = 1024
)

// newDirTable returns an empty table for sharer sets of width words.
func newDirTable(width int) dirTable {
	return dirTable{recs: make([]dirRec, dirTableMin), width: width,
		shift: 64 - uint(bits.TrailingZeros(dirTableMin))}
}

// home returns the slot where probing for line starts. Fibonacci
// hashing spreads runs of consecutive lines over the table.
func (t *dirTable) home(line uint64) uint64 {
	return ((line + 1) * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns the record holding line, or the empty record where
// probing for it stopped.
func (t *dirTable) find(line uint64) *dirRec {
	key, mask := line+1, uint64(len(t.recs)-1)
	for i := t.home(line); ; i = (i + 1) & mask {
		if r := &t.recs[i]; r.key == key || r.key == 0 {
			return r
		}
	}
}

// view returns the entry of record r.
func (t *dirTable) view(r *dirRec) dirEntry {
	i := r.meta >> 32
	off := int(i%wordChunk) * t.width
	return dirEntry{r: r, sharers: t.words[i/wordChunk][off : off+t.width : off+t.width]}
}

// get returns line's entry, if it has one.
func (t *dirTable) get(line uint64) (dirEntry, bool) {
	r := t.find(line)
	if r.key == 0 {
		return dirEntry{}, false
	}
	return t.view(r), true
}

// entry returns line's entry, first inserting an empty one (no owner,
// no sharers) if it has none; fresh reports the insert, which
// invalidates every other view of the table.
func (t *dirTable) entry(line uint64) (d dirEntry, fresh bool) {
	r := t.find(line)
	if r.key == 0 {
		r = t.insert(line)
		fresh = true
	}
	return t.view(r), fresh
}

// insert adds an empty record for line, which the table lacks.
func (t *dirTable) insert(line uint64) *dirRec {
	if 2*(t.n+1) > len(t.recs) {
		t.grow()
	}
	if t.n%wordChunk == 0 {
		t.words = append(t.words, make([]uint64, wordChunk*t.width))
	}
	r := t.find(line)
	*r = dirRec{key: line + 1, meta: uint64(t.n) << 32}
	t.n++
	return r
}

// grow doubles the record array and reinserts every record.
func (t *dirTable) grow() {
	old := t.recs
	t.recs = make([]dirRec, 2*len(old))
	t.shift--
	for _, r := range old {
		if r.key != 0 {
			*t.find(r.key - 1) = r
		}
	}
}

// Stats aggregates the measurable outcomes: Fig. 7 plots speedup (from
// cycles) and reports interconnect energy reduction.
type Stats struct {
	Accesses   uint64
	L1Hits     uint64
	L2Hits     uint64
	L3Hits     uint64
	MemFetches uint64

	DirLookups     uint64
	Invalidations  uint64
	WritebacksDir  uint64
	OwnerForwards  uint64 // 3-hop M-copy fetches via directory
	DirectSteers   uint64 // producer→consumer direct transfers
	UpgradeMisses  uint64 // S->M upgrades requiring invalidations
	DeactivatedAcc uint64 // accesses served with coherence deactivated

	Hops          uint64
	LineTransfers uint64

	// Cycles is the per-core cycle accounting.
	Cycles []int64
	// Crossings counts, per core, the socket crossings whose
	// RemoteSocket latency reached Cycles[core]. Cycles depend on
	// RemoteSocket only through these, linearly (see SumCyclesAt).
	Crossings []int64
	// EnergyPJ is total memory-system energy (interconnect +
	// directory + memory).
	EnergyPJ float64
	// InterconnectPJ is the interconnect-only energy (hops, line
	// flits, directory accesses) — the quantity whose ~53%% reduction
	// the paper reports.
	InterconnectPJ float64
}

// TotalCycles returns the maximum per-core cycle count (BSP completion).
func (s *Stats) TotalCycles() int64 {
	var m int64
	for _, c := range s.Cycles {
		if c > m {
			m = c
		}
	}
	return m
}

// SumCycles returns the sum over cores.
func (s *Stats) SumCycles() int64 {
	var t int64
	for _, c := range s.Cycles {
		t += c
	}
	return t
}

// SumCyclesAt returns SumCycles repriced for a run that charged ran
// cycles per socket crossing as if each had cost remote: every crossing
// added exactly ran to Cycles, so this is the sum a run at remote would
// have measured, in exact integer arithmetic, provided the access trace
// does not depend on the latencies Access returns.
func (s *Stats) SumCyclesAt(ran, remote int64) int64 {
	t := s.SumCycles()
	for _, x := range s.Crossings {
		t += (remote - ran) * x
	}
	return t
}

// Config describes the simulated memory system (Fig. 7 platform default:
// dual-socket, 12 cores per socket, 32K/256K/2.5M caches).
type Config struct {
	Sockets        int
	CoresPerSocket int
	LineSize       int
	L1Size, L1Ways int
	L2Size, L2Ways int
	// L3SlicePerCore is the shared L3 slice size per core.
	L3SlicePerCore, L3Ways int
	// MeshWidth is the on-die mesh width in tiles (0 = auto).
	MeshWidth int
	// Deactivation enables selective coherence deactivation.
	Deactivation bool
	Costs        model.CoherenceCosts
}

// DefaultConfig returns the Fig. 7 platform.
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 12,
		LineSize:       64,
		L1Size:         32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3SlicePerCore: 2560 << 10, L3Ways: 16,
		Costs: model.DefaultCoherence(),
	}
}

// System is one simulated coherent memory hierarchy.
type System struct {
	Cfg   Config
	cores int

	// FilterClass, when not ClassDefault, demotes every classification
	// that is not this class to ClassDefault — the per-class ablation
	// hook.
	FilterClass SharingClass

	l1, l2 []*Cache
	l3     []*l3Slice // one slice per core (NUCA); home by line hash
	homes  fastmod    // line % cores
	tiles  []tile     // each core's mesh position
	dir    dirTable

	regions []Region // sorted by base

	// crossed counts the socket crossings charged to the access in
	// progress.
	crossed int64

	Stats Stats
}

// New builds a system from cfg, which must have between 1 and 65535
// cores.
func New(cfg Config) *System {
	cores := cfg.Sockets * cfg.CoresPerSocket
	if cores < 1 || cores > 0xFFFF {
		panic("coherence: core count out of range") // dirRec packs owner and count in 16 bits
	}
	s := &System{Cfg: cfg, cores: cores, homes: newFastmod(uint64(cores)), dir: newDirTable((cores + 63) / 64)}
	for i := 0; i < cores; i++ {
		s.l1 = append(s.l1, NewCache(cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		s.l2 = append(s.l2, NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineSize))
		s.l3 = append(s.l3, newL3Slice(cfg.L3SlicePerCore, cfg.L3Ways, cfg.LineSize))
	}
	s.tiles = make([]tile, cores)
	for c := range s.tiles {
		s.tiles[c] = s.meshCoord(c)
	}
	s.Stats.Cycles = make([]int64, cores)
	s.Stats.Crossings = make([]int64, cores)
	return s
}

// Cores returns the core count.
func (s *System) Cores() int { return s.cores }

// Classify registers (or reclassifies) a region. Classification comes
// from the language runtime's knowledge (MPL disentanglement, §V-B).
func (s *System) Classify(base mem.Addr, size uint64, class SharingClass, producer int) {
	if s.FilterClass != ClassDefault && class != s.FilterClass {
		class = ClassDefault
	}
	r := Region{Base: base, Size: size, Class: class, Producer: producer}
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > base })
	s.regions = append(s.regions, Region{})
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
}

// classOf returns the sharing class of an address.
func (s *System) classOf(a mem.Addr) (SharingClass, int) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > a })
	if i > 0 {
		r := s.regions[i-1]
		if a >= r.Base && uint64(a-r.Base) < r.Size {
			return r.Class, r.Producer
		}
	}
	return ClassDefault, -1
}

// home returns the home core (L3 slice / directory tile) of a line.
func (s *System) home(line uint64) int {
	return int(s.homes.mod(line))
}

// tile is a core's socket and its tile coordinates within the socket's
// mesh.
type tile struct{ sock, x, y int32 }

// meshCoord returns a core's tile.
func (s *System) meshCoord(core int) tile {
	local := core % s.Cfg.CoresPerSocket
	w := s.Cfg.MeshWidth
	if w == 0 {
		w = 4
		for w*w < s.Cfg.CoresPerSocket {
			w++
		}
	}
	return tile{int32(core / s.Cfg.CoresPerSocket), int32(local % w), int32(local / w)}
}

// hops returns the interconnect distance between two cores, counting
// mesh hops plus the socket interconnect when crossing.
func (s *System) hops(a, b int) (hops uint64, crossSocket bool) {
	ta, tb := s.tiles[a], s.tiles[b]
	dx, dy := ta.x-tb.x, ta.y-tb.y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	h := uint64(dx + dy)
	if ta.sock != tb.sock {
		return h + 2, true // to edge, across, from edge (abstracted)
	}
	return h, false
}

// traffic accounts the hops and energy of n interconnect hops, carrying
// a line payload if xfer is true. It charges no latency.
func (s *System) traffic(n uint64, xfer bool) {
	c := &s.Cfg.Costs
	s.Stats.Hops += n
	s.Stats.EnergyPJ += float64(n) * c.EnergyPerHopPJ
	s.Stats.InterconnectPJ += float64(n) * c.EnergyPerHopPJ
	if xfer {
		s.Stats.LineTransfers++
		s.Stats.EnergyPJ += c.EnergyPerLinePJ * float64(n)
		s.Stats.InterconnectPJ += c.EnergyPerLinePJ * float64(n)
	}
}

// chargeHops accounts the traffic of n hops (+ socket crossing) and
// returns their latency. A crossing adds RemoteSocket and is counted in
// crossed, which Access credits to the requesting core.
func (s *System) chargeHops(n uint64, cross bool, xfer bool) int64 {
	s.traffic(n, xfer)
	lat := int64(n) * s.Cfg.Costs.HopLatency
	if cross {
		lat += s.Cfg.Costs.RemoteSocket
		s.crossed++
	}
	return lat
}

// Access performs one memory access by core at addr and returns its
// latency in cycles. Latency is also accumulated into Stats.Cycles[core].
func (s *System) Access(core int, addr mem.Addr, write bool) int64 {
	s.Stats.Accesses++
	line := s.l1[core].LineAddr(addr)
	class, producer := s.classOf(addr)
	deact := s.Cfg.Deactivation && class != ClassDefault

	var lat int64
	switch {
	case deact && class == ClassPrivate:
		lat = s.accessPrivate(core, line, write)
	case deact && class == ClassReadOnly:
		lat = s.accessReadOnly(core, line, write)
	case deact && class == ClassProducerConsumer:
		lat = s.accessSteered(core, line, write, producer)
	default:
		lat = s.accessMESI(core, line, write)
	}
	s.Stats.Cycles[core] += lat
	s.Stats.Crossings[core] += s.crossed
	s.crossed = 0
	return lat
}

// accessMESI is the full reactive protocol.
func (s *System) accessMESI(core int, line uint64, write bool) int64 {
	c := &s.Cfg.Costs
	st := s.l1[core].Lookup(line)
	if st != Invalid {
		if !write || st == Modified || st == Exclusive {
			if write {
				s.setPrivState(core, line, Modified)
				s.setDirOwner(line, core)
			}
			s.Stats.L1Hits++
			return c.L1Hit
		}
		// S->M upgrade: invalidate other sharers via directory.
		s.Stats.L1Hits++
		s.Stats.UpgradeMisses++
		lat := c.L1Hit + s.dirInvalidateOthers(core, line)
		s.setPrivState(core, line, Modified)
		s.setDirOwner(line, core)
		return lat
	}
	// L1 miss -> private L2.
	if st2 := s.l2[core].Lookup(line); st2 != Invalid {
		if write && st2 == Shared {
			s.Stats.L2Hits++
			lat := c.L2Hit + s.dirInvalidateOthers(core, line)
			s.fillPrivate(core, line, Modified)
			s.setDirOwner(line, core)
			return lat
		}
		s.Stats.L2Hits++
		ns := st2
		if write {
			ns = Modified
			s.setDirOwner(line, core)
		}
		s.fillPrivate(core, line, ns)
		return c.L2Hit
	}
	// Miss to the home tile: directory + L3 slice.
	home := s.home(line)
	h, cross := s.hops(core, home)
	lat := s.chargeHops(h, cross, false) + c.DirLookup
	s.Stats.DirLookups++
	s.Stats.EnergyPJ += c.EnergyPerDirPJ
	s.Stats.InterconnectPJ += c.EnergyPerDirPJ

	d, _ := s.dir.entry(line)

	if write {
		// Invalidate every other copy; fetch data.
		lat += s.invalidateAll(core, line, d)
		lat += s.fetchData(core, home, line)
		d.only(core)
		d.setOwner(core)
		s.fillPrivate(core, line, Modified)
		return lat
	}

	// Read: if another core holds the line M or E, forward from the
	// owner (3-hop path: requester -> home -> owner -> requester) and
	// downgrade it to S. Dirty (M) forwards also write back to the home.
	if owner := d.owner(); owner >= 0 && owner != core {
		ownSt := s.l1[owner].Peek(line)
		if ownSt == Invalid {
			ownSt = s.l2[owner].Peek(line)
		}
		if ownSt == Modified || ownSt == Exclusive {
			oh, ocross := s.hops(home, owner)
			lat += s.chargeHops(oh, ocross, false) // home -> owner request
			rh, rcross := s.hops(owner, core)
			lat += s.chargeHops(rh, rcross, true) // owner -> requester data
			s.Stats.OwnerForwards++
			s.setPrivState(owner, line, Shared)
			if ownSt == Modified {
				s.l3[home].Fill(line, Modified)
				s.Stats.WritebacksDir++
			}
			d.add(owner) // downgraded owner stays a sharer
			d.setOwner(-1)
			d.add(core)
			s.fillPrivate(core, line, Shared)
			return lat
		}
		// Owner evicted silently: fall through to the home fetch.
		d.setOwner(-1)
	}
	lat += s.fetchData(core, home, line)
	d.add(core)
	state := Shared
	if d.count() == 1 {
		state = Exclusive
		d.setOwner(core)
	}
	s.fillPrivate(core, line, state)
	return lat
}

// accessPrivate: coherence deactivated — no directory at all, and the
// paper's "mapping primitives for on-chip data placement" apply: private
// data homes in the owner's own L3 slice, so misses never cross the
// interconnect.
func (s *System) accessPrivate(core int, line uint64, write bool) int64 {
	c := &s.Cfg.Costs
	s.Stats.DeactivatedAcc++
	if st := s.l1[core].Lookup(line); st != Invalid {
		if write {
			s.setPrivState(core, line, Modified)
		}
		s.Stats.L1Hits++
		return c.L1Hit
	}
	if st := s.l2[core].Lookup(line); st != Invalid {
		ns := st
		if write {
			ns = Modified
		}
		s.fillPrivate(core, line, ns)
		s.Stats.L2Hits++
		return c.L2Hit
	}
	// Local placement: home = the owning core's slice.
	lat := s.fetchData(core, core, line)
	st := Exclusive
	if write {
		st = Modified
	}
	s.fillPrivate(core, line, st)
	return lat
}

// accessReadOnly: replicas everywhere, never tracked, never invalidated.
// Writes to a read-only region are a runtime bug; they fall back to the
// full protocol (and are visible in stats as default accesses).
func (s *System) accessReadOnly(core int, line uint64, write bool) int64 {
	if write {
		return s.accessMESI(core, line, write)
	}
	c := &s.Cfg.Costs
	s.Stats.DeactivatedAcc++
	if s.l1[core].Lookup(line) != Invalid {
		s.Stats.L1Hits++
		return c.L1Hit
	}
	if s.l2[core].Lookup(line) != Invalid {
		s.fillPrivate(core, line, Shared)
		s.Stats.L2Hits++
		return c.L2Hit
	}
	// Immutable data may replicate in the local slice: untracked
	// replicas are safe by construction.
	lat := s.fetchData(core, core, line)
	s.fillPrivate(core, line, Shared)
	return lat
}

// accessSteered: producer→consumer direct transfer. Consumer reads pull
// the line straight from the producer's cache (2-hop), skipping the
// directory; producer writes stay local (it owns the data by contract).
func (s *System) accessSteered(core int, line uint64, write bool, producer int) int64 {
	c := &s.Cfg.Costs
	s.Stats.DeactivatedAcc++
	if st := s.l1[core].Lookup(line); st != Invalid {
		if write {
			s.setPrivState(core, line, Modified)
		}
		s.Stats.L1Hits++
		return c.L1Hit
	}
	if st := s.l2[core].Lookup(line); st != Invalid {
		ns := st
		if write {
			ns = Modified
		}
		s.fillPrivate(core, line, ns)
		s.Stats.L2Hits++
		return c.L2Hit
	}
	if core != producer && producer >= 0 {
		// Direct steer from the producer's cache if it has the line.
		if s.l1[producer].Peek(line) != Invalid || s.l2[producer].Peek(line) != Invalid {
			h, cross := s.hops(core, producer)
			lat := s.chargeHops(h, cross, true)
			s.Stats.DirectSteers++
			s.fillPrivate(core, line, Shared)
			return lat + c.L1Hit
		}
	}
	home := s.home(line)
	lat := s.fetchData(core, home, line)
	st := Exclusive
	if write {
		st = Modified
	}
	s.fillPrivate(core, line, st)
	return lat
}

// fetchData reads the line at its home: L3 slice hit or memory.
func (s *System) fetchData(core, home int, line uint64) int64 {
	c := &s.Cfg.Costs
	h, cross := s.hops(home, core)
	lat := s.chargeHops(h, cross, true) // data return path
	if st, _, _ := s.l3[home].LookupOrFill(line, Shared); st != Invalid {
		s.Stats.L3Hits++
		return lat + c.L3Hit
	}
	s.Stats.MemFetches++
	s.Stats.EnergyPJ += c.EnergyPerMemPJ
	return lat + c.MemAccess
}

// setPrivState updates a line's state in both private levels, keeping
// them consistent.
func (s *System) setPrivState(core int, line uint64, st LineState) {
	s.l1[core].SetState(line, st)
	s.l2[core].SetState(line, st)
}

// fillPrivate installs the line in L1 and L2 with a consistent state,
// handling evictions: a line leaves the core's private hierarchy only
// when L2 evicts it, at which point dirty data writes back and the
// directory forgets the core. The private levels are inclusive (every
// valid L1 line is in L2 in the same state: L2 evictions purge L1, and
// invalidations and state changes hit both levels), so an L1 victim
// stays in L2 and the directory still rightly tracks the core.
func (s *System) fillPrivate(core int, line uint64, st LineState) {
	s.l1[core].Fill(line, st)
	if ev, evs := s.l2[core].Fill(line, st); evs != Invalid {
		// Inclusive: L2 eviction forces the L1 copy out too.
		l1St := s.l1[core].Invalidate(ev)
		if l1St == Modified || evs == Modified {
			s.writeback(core, ev)
		} else {
			s.dropDir(core, ev)
		}
	}
}

// dropDir removes a core from a line's directory entry after a clean
// eviction.
func (s *System) dropDir(core int, line uint64) {
	if d, ok := s.dir.get(line); ok {
		d.remove(core)
		if d.owner() == core {
			d.setOwner(-1)
		}
	}
}

func (s *System) writeback(core int, line uint64) {
	home := s.home(line)
	h, _ := s.hops(core, home)
	s.traffic(h, true) // off the critical path: no latency, no crossing
	s.l3[home].Fill(line, Modified)
	s.Stats.WritebacksDir++
	s.dropDir(core, line)
}

// dirInvalidateOthers handles an S->M upgrade: ask the home to
// invalidate all other sharers.
func (s *System) dirInvalidateOthers(core int, line uint64) int64 {
	home := s.home(line)
	h, cross := s.hops(core, home)
	lat := s.chargeHops(h, cross, false) + s.Cfg.Costs.DirLookup
	s.Stats.DirLookups++
	s.Stats.EnergyPJ += s.Cfg.Costs.EnergyPerDirPJ
	s.Stats.InterconnectPJ += s.Cfg.Costs.EnergyPerDirPJ
	// A fresh entry has no sharers and no owner, so nothing is
	// invalidated.
	d, _ := s.dir.entry(line)
	lat += s.invalidateAll(core, line, d)
	d.only(core)
	d.setOwner(core)
	return lat
}

// invalidateAll sends invalidations to every core d.invalidees names.
func (s *System) invalidateAll(keeper int, line uint64, d dirEntry) int64 {
	home := s.home(line)
	var lat int64
	d.invalidees(keeper, func(sh int) {
		h, cross := s.hops(home, sh)
		lat += s.chargeHops(h, cross, false)
		s.l1[sh].Invalidate(line)
		s.l2[sh].Invalidate(line)
		s.Stats.Invalidations++
	})
	return lat
}

// setDirOwner updates the directory owner on silent local upgrades.
func (s *System) setDirOwner(line uint64, core int) {
	d, fresh := s.dir.entry(line)
	if fresh {
		d.only(core)
	}
	d.setOwner(core)
}
