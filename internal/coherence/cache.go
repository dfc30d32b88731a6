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

import (
	"math/bits"

	"repro/internal/mem"
)

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
	sets      fastmod
	ways      int
	lineShift uint
	lines     []cacheLine
	tick      uint64

	Hits, Misses uint64
}

// NewCache builds a cache of the given total size (bytes), associativity
// and line size, which must be a power of two.
func NewCache(sizeBytes, ways, lineSize int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("coherence: bad cache geometry")
	}
	lineShift := uint(bits.TrailingZeros(uint(lineSize)))
	sets := sizeBytes / (ways * lineSize)
	if sets == 0 {
		sets = 1
	}
	return &Cache{
		sets:      newFastmod(uint64(sets)),
		ways:      ways,
		lineShift: lineShift,
		lines:     make([]cacheLine, sets*ways),
	}
}

// LineAddr returns the line-aligned address for a.
func (c *Cache) LineAddr(a mem.Addr) uint64 { return uint64(a) >> c.lineShift }

// set returns the ways of line's set. Set counts need not be powers of
// two (an L3 slice has 2560), so the index is a remainder.
func (c *Cache) set(line uint64) []cacheLine {
	i := int(c.sets.mod(line)) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// fastmod computes x % d with a multiply-high in place of the division
// for x below 2^32 (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019); larger x fall back to %. d must be below 2^32.
type fastmod struct{ d, m uint64 }

func newFastmod(d uint64) fastmod { return fastmod{d: d, m: ^uint64(0)/d + 1} }

func (f fastmod) mod(x uint64) uint64 {
	if x < 1<<32 {
		hi, _ := bits.Mul64(f.m*x, f.d)
		return hi
	}
	return x % f.d
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

// probe scans set once for line. It returns the valid way holding it,
// or nil and the way a fill replaces: the first invalid way, else the
// least recently used one.
func probe(set []cacheLine, line uint64) (hit, victim *cacheLine) {
	victim = &set[0]
	free := false
	for i := range set {
		l := &set[i]
		switch {
		case l.state() == Invalid:
			if !free {
				victim, free = l, true
			}
		case l.tag == line:
			return l, nil
		case !free && l.meta < victim.meta:
			victim = l
		}
	}
	return nil, victim
}

// install replaces victim with line in state s at the current tick,
// returning the line it evicted and its state (Invalid if none).
func (c *Cache) install(victim *cacheLine, line uint64, s LineState) (uint64, LineState) {
	ev, evs := victim.tag, victim.state()
	*victim = cacheLine{tag: line, meta: c.tick<<2 | uint64(s)}
	if evs == Invalid {
		return 0, Invalid
	}
	return ev, evs
}

// Fill installs a line, evicting LRU if needed. It returns the evicted
// line number and its state (state Invalid if no eviction occurred).
func (c *Cache) Fill(line uint64, s LineState) (evicted uint64, evictedState LineState) {
	c.tick++
	hit, victim := probe(c.set(line), line)
	if hit != nil {
		hit.meta = c.tick<<2 | uint64(s)
		return 0, Invalid
	}
	return c.install(victim, line, s)
}

// LookupOrFill is Lookup and, on a miss, Fill(line, s), in one scan of
// the set. It returns the line's state before the call (Invalid on a
// miss) and what the fill evicted; ticks, counters and victims are
// those of the two calls.
func (c *Cache) LookupOrFill(line uint64, s LineState) (st LineState, evicted uint64, evictedState LineState) {
	c.tick++
	hit, victim := probe(c.set(line), line)
	if hit != nil {
		st = hit.state()
		hit.meta = c.tick<<2 | uint64(st)
		c.Hits++
		return st, 0, Invalid
	}
	c.Misses++
	c.tick++
	evicted, evictedState = c.install(victim, line, s)
	return Invalid, evicted, evictedState
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
