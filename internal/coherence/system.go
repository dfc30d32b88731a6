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

// dirState is the directory's view of one line. The sharer set is a
// bitset of one bit per core, carved from the System's slab, with its
// population kept in n.
type dirState struct {
	sharers []uint64
	n       int
	owner   int // core with M copy; -1 if none
}

// has reports whether core is a sharer.
func (d *dirState) has(core int) bool {
	return d.sharers[core>>6]&(1<<(core&63)) != 0
}

// add makes core a sharer.
func (d *dirState) add(core int) {
	w, b := &d.sharers[core>>6], uint64(1)<<(core&63)
	if *w&b == 0 {
		*w |= b
		d.n++
	}
}

// remove drops core from the sharers.
func (d *dirState) remove(core int) {
	w, b := &d.sharers[core>>6], uint64(1)<<(core&63)
	if *w&b != 0 {
		*w &^= b
		d.n--
	}
}

// only makes core the sole sharer.
func (d *dirState) only(core int) {
	clear(d.sharers)
	d.sharers[core>>6] = 1 << (core & 63)
	d.n = 1
}

// invalidees calls fn, in ascending core order, for every core that
// must drop the line when keeper takes it exclusively: each sharer
// other than keeper, and the owner when it is not a sharer (merged into
// the ascending walk). Energy sums are order-sensitive floats, so the
// order is part of the output.
func (d *dirState) invalidees(keeper int, fn func(core int)) {
	owner := -1
	if d.owner >= 0 && d.owner != keeper && !d.has(d.owner) {
		owner = d.owner
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

// dirChunk is how many directory entries one slab allocation carves.
const dirChunk = 256

// dirTable maps lines to their directory entries: open addressing with
// linear probing over a power-of-two slot array that is kept at most
// half full. A slot's key is line+1, so key 0 marks an empty slot and
// line 0 needs no special case. Entries are never removed.
type dirTable struct {
	slots []dirSlot
	n     int
	shift uint // 64 - log2(len(slots)): the slot index is the hash's top bits
}

type dirSlot struct {
	key uint64 // line+1; 0 = empty
	d   *dirState
}

// dirTableMin is a fresh table's slot count.
const dirTableMin = 256

func newDirTable() dirTable {
	return dirTable{slots: make([]dirSlot, dirTableMin), shift: 64 - uint(bits.TrailingZeros(dirTableMin))}
}

// home returns the slot where probing for line starts. Fibonacci
// hashing spreads runs of consecutive lines over the table.
func (t *dirTable) home(line uint64) uint64 {
	return ((line + 1) * 0x9E3779B97F4A7C15) >> t.shift
}

// slot returns the slot holding line, or the empty slot where probing
// for it stopped.
func (t *dirTable) slot(line uint64) *dirSlot {
	key, mask := line+1, uint64(len(t.slots)-1)
	for i := t.home(line); ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.key == key || sl.key == 0 {
			return sl
		}
	}
}

// get returns line's entry, or nil.
func (t *dirTable) get(line uint64) *dirState {
	return t.slot(line).d
}

// put sets line's entry to d.
func (t *dirTable) put(line uint64, d *dirState) {
	sl := t.slot(line)
	if sl.key == 0 {
		if 2*(t.n+1) > len(t.slots) {
			t.grow()
			sl = t.slot(line)
		}
		sl.key = line + 1
		t.n++
	}
	sl.d = d
}

// grow doubles the slot array and reinserts every entry.
func (t *dirTable) grow() {
	old := t.slots
	t.slots = make([]dirSlot, 2*len(old))
	t.shift--
	for _, sl := range old {
		if sl.key != 0 {
			*t.slot(sl.key - 1) = sl
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
	l3     []*Cache // one slice per core (NUCA); home by line hash
	dir    dirTable

	// Directory entries and their sharer words are carved from these
	// slabs, dirChunk entries at a time; entries are never freed.
	dirSlab  []dirState
	wordSlab []uint64
	words    int // sharer bitset words per entry

	regions []Region // sorted by base

	// crossed counts the socket crossings charged to the access in
	// progress.
	crossed int64

	Stats Stats
}

// New builds a system from cfg.
func New(cfg Config) *System {
	cores := cfg.Sockets * cfg.CoresPerSocket
	s := &System{Cfg: cfg, cores: cores, dir: newDirTable(), words: (cores + 63) / 64}
	for i := 0; i < cores; i++ {
		s.l1 = append(s.l1, NewCache(cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		s.l2 = append(s.l2, NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineSize))
		s.l3 = append(s.l3, NewCache(cfg.L3SlicePerCore, cfg.L3Ways, cfg.LineSize))
	}
	s.Stats.Cycles = make([]int64, cores)
	s.Stats.Crossings = make([]int64, cores)
	return s
}

// newDir allocates an empty directory entry with the given owner.
func (s *System) newDir(owner int) *dirState {
	if len(s.dirSlab) == 0 {
		s.dirSlab = make([]dirState, dirChunk)
		s.wordSlab = make([]uint64, dirChunk*s.words)
	}
	d := &s.dirSlab[0]
	s.dirSlab = s.dirSlab[1:]
	d.sharers = s.wordSlab[:s.words:s.words]
	s.wordSlab = s.wordSlab[s.words:]
	d.owner = owner
	return d
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
	return int(line % uint64(s.cores))
}

// meshCoord returns a core's tile coordinates within its socket.
func (s *System) meshCoord(core int) (sock, x, y int) {
	sock = core / s.Cfg.CoresPerSocket
	local := core % s.Cfg.CoresPerSocket
	w := s.Cfg.MeshWidth
	if w == 0 {
		w = 4
		for w*w < s.Cfg.CoresPerSocket {
			w++
		}
	}
	return sock, local % w, local / w
}

// hops returns the interconnect distance between two cores, counting
// mesh hops plus the socket interconnect when crossing.
func (s *System) hops(a, b int) (hops uint64, crossSocket bool) {
	sa, xa, ya := s.meshCoord(a)
	sb, xb, yb := s.meshCoord(b)
	dx, dy := xa-xb, ya-yb
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	h := uint64(dx + dy)
	if sa != sb {
		return h + 2, true // to edge, across, from edge (abstracted)
	}
	return h, false
}

// traffic accounts the hops and energy of n interconnect hops, carrying
// a line payload if xfer is true. It charges no latency.
func (s *System) traffic(n uint64, xfer bool) {
	c := s.Cfg.Costs
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
	c := s.Cfg.Costs
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

	d := s.dir.get(line)
	if d == nil {
		d = s.newDir(-1)
		s.dir.put(line, d)
	}

	if write {
		// Invalidate every other copy; fetch data.
		lat += s.invalidateAll(core, line, d)
		lat += s.fetchData(core, home, line)
		d.only(core)
		d.owner = core
		s.fillPrivate(core, line, Modified)
		return lat
	}

	// Read: if another core holds the line M or E, forward from the
	// owner (3-hop path: requester -> home -> owner -> requester) and
	// downgrade it to S. Dirty (M) forwards also write back to the home.
	if d.owner >= 0 && d.owner != core {
		ownSt := s.l1[d.owner].Peek(line)
		if ownSt == Invalid {
			ownSt = s.l2[d.owner].Peek(line)
		}
		if ownSt == Modified || ownSt == Exclusive {
			oh, ocross := s.hops(home, d.owner)
			lat += s.chargeHops(oh, ocross, false) // home -> owner request
			rh, rcross := s.hops(d.owner, core)
			lat += s.chargeHops(rh, rcross, true) // owner -> requester data
			s.Stats.OwnerForwards++
			s.setPrivState(d.owner, line, Shared)
			if ownSt == Modified {
				s.l3[home].Fill(line, Modified)
				s.Stats.WritebacksDir++
			}
			d.add(d.owner) // downgraded owner stays a sharer
			d.owner = -1
			d.add(core)
			s.fillPrivate(core, line, Shared)
			return lat
		}
		// Owner evicted silently: fall through to the home fetch.
		d.owner = -1
	}
	lat += s.fetchData(core, home, line)
	d.add(core)
	state := Shared
	if d.n == 1 {
		state = Exclusive
		d.owner = core
	}
	s.fillPrivate(core, line, state)
	return lat
}

// accessPrivate: coherence deactivated — no directory at all, and the
// paper's "mapping primitives for on-chip data placement" apply: private
// data homes in the owner's own L3 slice, so misses never cross the
// interconnect.
func (s *System) accessPrivate(core int, line uint64, write bool) int64 {
	c := s.Cfg.Costs
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
	c := s.Cfg.Costs
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
	c := s.Cfg.Costs
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
	c := s.Cfg.Costs
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
// when it is gone from both levels (L2 evictions purge L1 — inclusive
// policy), at which point dirty data writes back and the directory
// forgets the core.
func (s *System) fillPrivate(core int, line uint64, st LineState) {
	if ev, evs := s.l1[core].Fill(line, st); evs != Invalid {
		if s.l2[core].Peek(ev) == Invalid {
			// Left the hierarchy entirely.
			if evs == Modified {
				s.writeback(core, ev)
			} else {
				s.dropDir(core, ev)
			}
		}
		// Otherwise L2 retains it (same state; levels are kept
		// consistent), so the directory still rightly tracks the core.
	}
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
	if d := s.dir.get(line); d != nil {
		d.remove(core)
		if d.owner == core {
			d.owner = -1
		}
	}
}

func (s *System) writeback(core int, line uint64) {
	home := s.home(line)
	h, _ := s.hops(core, home)
	s.traffic(h, true) // off the critical path: no latency, no crossing
	s.l3[home].Fill(line, Modified)
	s.Stats.WritebacksDir++
	if d := s.dir.get(line); d != nil {
		d.remove(core)
		if d.owner == core {
			d.owner = -1
		}
	}
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
	d := s.dir.get(line)
	if d == nil {
		d = s.newDir(-1)
		d.only(core)
		s.dir.put(line, d)
	}
	lat += s.invalidateAll(core, line, d)
	d.only(core)
	d.owner = core
	return lat
}

// invalidateAll sends invalidations to every core d.invalidees names.
func (s *System) invalidateAll(keeper int, line uint64, d *dirState) int64 {
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
	d := s.dir.get(line)
	if d == nil {
		d = s.newDir(core)
		d.only(core)
		s.dir.put(line, d)
		return
	}
	d.owner = core
}
