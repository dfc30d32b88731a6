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

// Cache is one private set-associative cache level with LRU
// replacement. Its ways live in one flat slice, set by set: set i is
// lines[i*ways : (i+1)*ways].
//
// Lookup remembers the way it hit, or the way a fill of its line would
// replace, so that a SetState or Fill of the same line that directly
// follows it scans no set. Every other call forgets it.
type Cache struct {
	sets      fastmod
	ways      int
	lineShift uint
	lines     []cacheLine
	tick      uint64

	way     *cacheLine // what the last call, if Lookup(wayLine), found; else nil
	wayLine uint64
	wayHit  bool // way holds wayLine; else it is the way a fill replaces

	Hits, Misses uint64
}

// geometry checks a cache's size (bytes), associativity and line size,
// which must be a power of two, and returns its set count and the shift
// from an address to its line.
func geometry(sizeBytes, ways, lineSize int) (sets int, lineShift uint) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("coherence: bad cache geometry")
	}
	sets = sizeBytes / (ways * lineSize)
	if sets == 0 {
		sets = 1
	}
	return sets, uint(bits.TrailingZeros(uint(lineSize)))
}

// NewCache builds a cache of the given total size (bytes), associativity
// and line size, which must be a power of two.
func NewCache(sizeBytes, ways, lineSize int) *Cache {
	sets, lineShift := geometry(sizeBytes, ways, lineSize)
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
	hit, victim := probe(c.set(line), line)
	c.wayLine = line
	if hit != nil {
		c.way, c.wayHit = hit, true
		st := hit.state()
		hit.meta = c.tick<<2 | uint64(st)
		c.Hits++
		return st
	}
	c.way, c.wayHit = victim, false
	c.Misses++
	return Invalid
}

// recall returns what the previous call found for line if that call was
// Lookup(line): the way holding line, or nil and the way a fill
// replaces. ok is false if it was any other call. The way is forgotten.
// Lookup changes no way but the one it hit, so the answer is still the
// one a scan would give.
func (c *Cache) recall(line uint64) (hit, victim *cacheLine, ok bool) {
	w := c.way
	c.way = nil
	switch {
	case w == nil || c.wayLine != line:
		return nil, nil, false
	case c.wayHit:
		return w, nil, true
	default:
		return nil, w, true
	}
}

// Peek returns the state without touching LRU or counters.
func (c *Cache) Peek(line uint64) LineState {
	c.way = nil
	if l := find(c.set(line), line); l != nil {
		return l.state()
	}
	return Invalid
}

// SetState updates or removes a present line's state (no fill).
func (c *Cache) SetState(line uint64, s LineState) {
	l, _, ok := c.recall(line)
	if !ok {
		l = find(c.set(line), line)
	}
	if l != nil {
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

// Fill installs a line, evicting LRU if needed. It returns the evicted
// line number and its state (state Invalid if no eviction occurred).
func (c *Cache) Fill(line uint64, s LineState) (evicted uint64, evictedState LineState) {
	c.tick++
	hit, victim, ok := c.recall(line)
	if !ok {
		hit, victim = probe(c.set(line), line)
	}
	if hit != nil {
		hit.meta = c.tick<<2 | uint64(s)
		return 0, Invalid
	}
	ev, evs := victim.tag, victim.state()
	*victim = cacheLine{tag: line, meta: c.tick<<2 | uint64(s)}
	if evs == Invalid {
		return 0, Invalid
	}
	return ev, evs
}

// Invalidate removes a line, returning its prior state.
func (c *Cache) Invalidate(line uint64) LineState {
	c.way = nil
	if l := find(c.set(line), line); l != nil {
		s := l.state()
		l.meta &^= 3
		return s
	}
	return Invalid
}

// l3Slice is one shared L3 slice. Only Fill and LookupOrFill reach it,
// and neither installs Invalid, so nothing ever invalidates an L3 line:
// a set's valid ways are always a prefix, filled in order. A slice
// therefore stores only those. Each set has one index word naming its
// block and its valid way count, and its block grows 2 → 4 → 8 → …
// ways, up to the associativity, only when every stored way is valid.
// A miss in a set that is not full takes way count, the first invalid
// way a dense set would pick; only a full set replaces its least
// recently used way. Ticks, counters and victims are those of a dense
// Cache given the same calls.
//
// Blocks are carved from fixed chunks that never move, so growth copies
// one set's ways and nothing else. An outgrown block goes on a free
// list of its size, and the next set to need that size takes it.
type l3Slice struct {
	sets   fastmod
	ways   int
	index  []uint32 // per set: block location << countBits | valid ways
	chunks []*[chunkWays]cacheLine
	used   int       // ways handed out from the last chunk
	free   [8]uint32 // per log2 size below 256: first outgrown block's location + 1, or 0
	tick   uint64

	Hits, Misses uint64
}

const (
	// countBits is the width of a set's valid way count in its index
	// word. The block's location, chunk << chunkBits | position, takes
	// the other bits.
	countBits = 8
	chunkBits = 8
	chunkWays = 1 << chunkBits
)

// newL3Slice builds an empty slice of the given geometry, as NewCache.
func newL3Slice(sizeBytes, ways, lineSize int) *l3Slice {
	sets, _ := geometry(sizeBytes, ways, lineSize)
	// A set's blocks, outgrown ones included, hold fewer than 3×ways,
	// and a chunk is closed with fewer than ways left unused, so every
	// location stays below this bound, which must fit its bits.
	if ways >= 1<<countBits ||
		uint64(sets)*uint64(3*ways)*chunkWays/uint64(chunkWays-ways+1) >= 1<<(32-countBits) {
		panic("coherence: L3 slice geometry too large")
	}
	return &l3Slice{sets: newFastmod(uint64(sets)), ways: ways, index: make([]uint32, sets)}
}

// blockWays returns the ways of the block that holds n > 0 valid ways.
func (c *l3Slice) blockWays(n int) int {
	return min(max(2, 1<<bits.Len(uint(n-1))), c.ways)
}

// block returns the n ways of the block at loc.
func (c *l3Slice) block(loc uint32, n int) []cacheLine {
	pos := int(loc % chunkWays)
	return c.chunks[loc>>chunkBits][pos : pos+n : pos+n]
}

// alloc returns the location of a block of size ways: an outgrown block
// of that size if there is one, else the next size ways of the last
// chunk, or of a new chunk.
func (c *l3Slice) alloc(size int) uint32 {
	if size < c.ways { // a power of two, so blocks of it are outgrown
		if f := &c.free[bits.TrailingZeros(uint(size))]; *f != 0 {
			loc := *f - 1
			*f = uint32(c.block(loc, 1)[0].tag) // the next free block
			return loc
		}
	}
	if len(c.chunks) == 0 || c.used+size > chunkWays {
		c.chunks = append(c.chunks, new([chunkWays]cacheLine))
		c.used = 0
	}
	loc := uint32(len(c.chunks)-1)<<chunkBits | uint32(c.used)
	c.used += size
	return loc
}

// release puts the outgrown block at loc, of size ways, on its free
// list, linked through its first way's tag.
func (c *l3Slice) release(loc uint32, size int) {
	f := &c.free[bits.TrailingZeros(uint(size))]
	c.block(loc, 1)[0].tag = uint64(*f)
	*f = loc + 1
}

// probe scans line's set once. It returns the set's index word, its
// valid ways, and the position of line among them, or -1 and the
// position of the least recently used way.
func (c *l3Slice) probe(line uint64) (set *uint32, ways []cacheLine, hit, lru int) {
	set = &c.index[c.sets.mod(line)]
	n := int(*set % (1 << countBits))
	if n == 0 {
		return set, nil, -1, 0
	}
	ways = c.block(*set>>countBits, n)
	for i := range ways {
		if ways[i].tag == line {
			return set, ways, i, 0
		}
		if ways[i].meta < ways[lru].meta {
			lru = i
		}
	}
	return set, ways, -1, lru
}

// install puts line in state s in the set at the current tick: in the
// next free way, moving the set to a larger block if every stored way is
// valid, or over the least recently used way of a full set. It returns
// the line it evicted and its state (Invalid if none).
func (c *l3Slice) install(set *uint32, ways []cacheLine, lru int, line uint64, s LineState) (uint64, LineState) {
	l := cacheLine{tag: line, meta: c.tick<<2 | uint64(s)}
	n := len(ways)
	if n == c.ways {
		v := &ways[lru]
		ev, evs := v.tag, v.state()
		*v = l
		return ev, evs
	}
	loc := *set >> countBits
	if n == 0 || n == c.blockWays(n) {
		old := loc
		loc = c.alloc(c.blockWays(n + 1))
		copy(c.block(loc, n), ways)
		if n > 0 {
			c.release(old, n)
		}
	}
	c.block(loc, n+1)[n] = l
	*set = loc<<countBits | uint32(n+1)
	return 0, Invalid
}

// Fill installs a line, evicting LRU if needed. It returns the evicted
// line number and its state (state Invalid if no eviction occurred).
func (c *l3Slice) Fill(line uint64, s LineState) (evicted uint64, evictedState LineState) {
	c.tick++
	set, ways, hit, lru := c.probe(line)
	if hit >= 0 {
		ways[hit].meta = c.tick<<2 | uint64(s)
		return 0, Invalid
	}
	return c.install(set, ways, lru, line, s)
}

// LookupOrFill is a Cache's Lookup and, on a miss, Fill(line, s), in
// one scan of the set. It returns the line's state before the call
// (Invalid on a miss) and what the fill evicted; ticks, counters and
// victims are those of the two calls.
func (c *l3Slice) LookupOrFill(line uint64, s LineState) (st LineState, evicted uint64, evictedState LineState) {
	c.tick++
	set, ways, hit, lru := c.probe(line)
	if hit >= 0 {
		l := &ways[hit]
		st = l.state()
		l.meta = c.tick<<2 | uint64(st)
		c.Hits++
		return st, 0, Invalid
	}
	c.Misses++
	c.tick++
	evicted, evictedState = c.install(set, ways, lru, line, s)
	return Invalid, evicted, evictedState
}
