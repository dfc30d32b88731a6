// Package coherence implements a directory-based MESI cache-coherence
// simulator for a multi-socket mesh CMP, extended with the paper's
// *selective coherence deactivation* (§V-B): regions whose sharing
// semantics are known from the high-level language (private, read-only,
// producer→consumer) opt out of the reactive protocol, eliminating
// directory indirection, invalidation traffic, and interconnect energy.
//
// The paper evaluated this in Sniper with PBBS benchmarks compiled by a
// modified MPL Parallel ML; here the same protocol logic runs on
// deterministic access traces from internal/workloads.
package coherence

import "repro/internal/mem"

// LineState is the MESI state of a line in a private cache.
type LineState uint8

// MESI states.
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case Modified:
		return "M"
	case Exclusive:
		return "E"
	case Shared:
		return "S"
	default:
		return "I"
	}
}

// cacheLine is one way of a set, packed into 16 bytes so a 16-way L3
// set spans four host cache lines instead of six: lookups are bound by
// host memory latency. meta holds the way's LRU tick above its MESI
// state; ticks are unique per cache, so comparing meta between valid
// ways compares ticks.
type cacheLine struct {
	tag  uint64
	meta uint64 // lru tick << 2 | LineState
}

func (l *cacheLine) state() LineState { return LineState(l.meta & 3) }

// Cache is one set-associative cache level with LRU replacement. Its
// ways live in one flat slice, set by set: set i is
// lines[i*ways : (i+1)*ways].
type Cache struct {
	sets      uint64
	ways      int
	lineShift uint
	lines     []cacheLine
	tick      uint64

	Hits, Misses uint64
}

// NewCache builds a cache of the given total size (bytes), associativity
// and line size.
func NewCache(sizeBytes, ways, lineSize int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		panic("coherence: bad cache geometry")
	}
	lineShift := uint(0)
	for 1<<lineShift < lineSize {
		lineShift++
	}
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 {
		sets = 1
	}
	return &Cache{
		sets:      uint64(sets),
		ways:      ways,
		lineShift: lineShift,
		lines:     make([]cacheLine, sets*ways),
	}
}

// LineAddr returns the line-aligned address for a.
func (c *Cache) LineAddr(a mem.Addr) uint64 { return uint64(a) >> c.lineShift }

// set returns the ways of line's set. The set index costs a division
// (set counts need not be powers of two: an L3 slice has 2560), so
// each operation calls this once.
func (c *Cache) set(line uint64) []cacheLine {
	i := int(line%c.sets) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// find returns the valid way of set holding line, or nil.
func find(set []cacheLine, line uint64) *cacheLine {
	for i := range set {
		if l := &set[i]; l.tag == line && l.state() != Invalid {
			return l
		}
	}
	return nil
}

// Lookup returns the line's state (Invalid if absent), touching LRU.
func (c *Cache) Lookup(line uint64) LineState {
	c.tick++
	if l := find(c.set(line), line); l != nil {
		st := l.state()
		l.meta = c.tick<<2 | uint64(st)
		c.Hits++
		return st
	}
	c.Misses++
	return Invalid
}

// Peek returns the state without touching LRU or counters.
func (c *Cache) Peek(line uint64) LineState {
	if l := find(c.set(line), line); l != nil {
		return l.state()
	}
	return Invalid
}

// SetState updates or removes a present line's state (no fill).
func (c *Cache) SetState(line uint64, s LineState) {
	if l := find(c.set(line), line); l != nil {
		l.meta = l.meta&^3 | uint64(s)
	}
}

// Fill installs a line, evicting LRU if needed. It returns the evicted
// line number and its state (state Invalid if no eviction occurred).
func (c *Cache) Fill(line uint64, s LineState) (evicted uint64, evictedState LineState) {
	c.tick++
	set := c.set(line)
	// Already present: update.
	if l := find(set, line); l != nil {
		l.meta = c.tick<<2 | uint64(s)
		return 0, Invalid
	}
	victim := 0
	for i := range set {
		if set[i].state() == Invalid {
			victim = i
			break
		}
		if set[i].meta < set[victim].meta {
			victim = i
		}
	}
	ev, evs := set[victim].tag, set[victim].state()
	set[victim] = cacheLine{tag: line, meta: c.tick<<2 | uint64(s)}
	if evs == Invalid {
		return 0, Invalid
	}
	return ev, evs
}

// Invalidate removes a line, returning its prior state.
func (c *Cache) Invalidate(line uint64) LineState {
	if l := find(c.set(line), line); l != nil {
		s := l.state()
		l.meta &^= 3
		return s
	}
	return Invalid
}
