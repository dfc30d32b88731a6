package coherence

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
)

// lruModel is the semantic reference for one cache: per set, the
// resident lines in recency order (most recent first). It knows nothing
// of ways, ticks or slots.
type lruModel struct {
	sets, ways uint64
	res        map[uint64][]modelLine
	hits, miss uint64
}

type modelLine struct {
	line  uint64
	state LineState
}

func (m *lruModel) find(line uint64) (set uint64, i int) {
	set = line % m.sets
	for i, l := range m.res[set] {
		if l.line == line {
			return set, i
		}
	}
	return set, -1
}

func (m *lruModel) lookup(line uint64) LineState {
	set, i := m.find(line)
	if i < 0 {
		m.miss++
		return Invalid
	}
	m.hits++
	l := m.res[set][i]
	m.res[set] = append([]modelLine{l}, append(m.res[set][:i:i], m.res[set][i+1:]...)...)
	return l.state
}

func (m *lruModel) peek(line uint64) LineState {
	if set, i := m.find(line); i >= 0 {
		return m.res[set][i].state
	}
	return Invalid
}

func (m *lruModel) drop(set uint64, i int) LineState {
	s := m.res[set][i].state
	m.res[set] = append(m.res[set][:i:i], m.res[set][i+1:]...)
	return s
}

func (m *lruModel) setState(line uint64, s LineState) {
	if set, i := m.find(line); i >= 0 {
		if s == Invalid {
			m.drop(set, i)
			return
		}
		m.res[set][i].state = s
	}
}

func (m *lruModel) fill(line uint64, s LineState) (uint64, LineState) {
	set, i := m.find(line)
	if i >= 0 {
		m.drop(set, i)
	}
	var ev uint64
	evs := Invalid
	if i < 0 && uint64(len(m.res[set])) == m.ways {
		last := len(m.res[set]) - 1
		ev = m.res[set][last].line
		evs = m.drop(set, last)
	}
	m.res[set] = append([]modelLine{{line, s}}, m.res[set]...)
	return ev, evs
}

func (m *lruModel) invalidate(line uint64) LineState {
	if set, i := m.find(line); i >= 0 {
		return m.drop(set, i)
	}
	return Invalid
}

// TestCacheMatchesLRUModel replays seeded operation traces on both
// cache layouts and on the recency-list model, comparing every result.
//
// The dense Cache runs at the L1 (64 sets) and L2 (512 sets)
// geometries, a single set and a small odd set count. Its traces mix
// every operation, and also Lookup followed by SetState or Fill of the
// same line, the pairs that reuse the way Lookup found, with a Peek,
// Invalidate, Lookup or SetState of the line or of another line in its
// set sometimes between them. A way the intervening call made stale
// (an earlier way freed, the remembered one evicted) must not be used.
//
// The fill-only L3 slice runs at the slice geometry (2560 sets: not a
// power of two, so the set index is a real division), a single set and
// three sets, on Fill and LookupOrFill only: the calls that reach it.
// Its traces fill sets and evict from them, and every set's stored
// ways must be the model's resident lines.
func TestCacheMatchesLRUModel(t *testing.T) {
	geoms := []struct {
		name                 string
		size, ways, lineSize int
		sets                 uint64
		fillOnly             bool
	}{
		{"l3-slice-2560x16", 2560 << 10, 16, 64, 2560, true},
		{"l3-one-set-4way", 256, 4, 64, 1, true},
		{"l3-three-sets-2way", 384, 2, 64, 3, true},
		{"l1-64x8", 32 << 10, 8, 64, 64, false},
		{"l2-512x8", 256 << 10, 8, 64, 512, false},
		{"one-set-4way", 256, 4, 64, 1, false},
		{"three-sets-2way", 384, 2, 64, 3, false},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			m := &lruModel{sets: g.sets, ways: uint64(g.ways), res: map[uint64][]modelLine{}}
			x := uint64(g.sets)
			next := func(n uint64) uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return (x >> 33) % n
			}
			if g.fillOnly {
				replayFillOnly(t, newL3Slice(g.size, g.ways, g.lineSize), m, next)
				return
			}
			replayDense(t, NewCache(g.size, g.ways, g.lineSize), m, next)
		})
	}
}

// replayFillOnly drives a fill-only slice and the model with seeded
// Fill and LookupOrFill calls. Half the lines alias onto 24 hot sets,
// ways+8 lines each, so those sets fill and evict; the rest spread over
// up to 7 lines per set.
func replayFillOnly(t *testing.T, c *l3Slice, m *lruModel, next func(uint64) uint64) {
	t.Helper()
	if c.sets.d != m.sets {
		t.Fatalf("sets = %d, want %d", c.sets.d, m.sets)
	}
	hot := min(m.sets, 24)
	evictions := 0
	for op := 0; op < 40000; op++ {
		line := next(7 * m.sets)
		if next(2) == 0 {
			line = next(hot)*(m.sets/hot) + m.sets*next(m.ways+8)
		}
		st := LineState(1 + next(3))
		if next(3) == 0 {
			ev, evs := c.Fill(line, st)
			wev, wevs := m.fill(line, st)
			if ev != wev || evs != wevs {
				t.Fatalf("op %d Fill(%d) evicted (%d,%v), model (%d,%v)", op, line, ev, evs, wev, wevs)
			}
			if evs != Invalid {
				evictions++
			}
			continue
		}
		tick := c.tick
		got, ev, evs := c.LookupOrFill(line, st)
		want, wev, wevs := m.lookup(line), uint64(0), Invalid
		ticks := uint64(1) // Lookup's
		if want == Invalid {
			wev, wevs = m.fill(line, st)
			ticks++ // and Fill's
		}
		if got != want || ev != wev || evs != wevs {
			t.Fatalf("op %d LookupOrFill(%d) = (%v,%d,%v), model (%v,%d,%v)", op, line, got, ev, evs, want, wev, wevs)
		}
		if c.tick != tick+ticks {
			t.Fatalf("op %d LookupOrFill(%d) advanced the tick by %d, Lookup+Fill by %d", op, line, c.tick-tick, ticks)
		}
		if evs != Invalid {
			evictions++
		}
	}
	if c.Hits != m.hits || c.Misses != m.miss {
		t.Fatalf("hits/misses = %d/%d, model %d/%d", c.Hits, c.Misses, m.hits, m.miss)
	}
	if c.Hits == 0 || c.Misses == 0 || evictions == 0 {
		t.Fatalf("trace made %d hits, %d misses and %d evictions; want each", c.Hits, c.Misses, evictions)
	}
	for set, w := range c.index {
		n := int(w % (1 << countBits))
		res := m.res[uint64(set)]
		if n != len(res) {
			t.Fatalf("set %d: %d ways stored, model holds %d", set, n, len(res))
		}
		if n == 0 {
			continue
		}
		ways := c.block(w>>countBits, c.blockWays(n))
		for _, r := range res {
			if st := waysState(ways[:n], r.line); st != r.state {
				t.Fatalf("set %d: line %d is %v, model %v", set, r.line, st, r.state)
			}
		}
	}
}

// waysState returns line's state among ways, Invalid if absent.
func waysState(ways []cacheLine, line uint64) LineState {
	if l := find(ways, line); l != nil {
		return l.state()
	}
	return Invalid
}

// replayDense drives a dense Cache and the model with seeded calls of
// every kind, and with Lookup→SetState and Lookup→Fill pairs of one
// line, sometimes split by one other call on the same cache.
func replayDense(t *testing.T, c *Cache, m *lruModel, next func(uint64) uint64) {
	t.Helper()
	if c.sets.d != m.sets {
		t.Fatalf("sets = %d, want %d", c.sets.d, m.sets)
	}
	// A hit on a way past an invalid one: Lookup must find the line, and
	// the Fill that reuses its way must not take the free way before it.
	a, b := uint64(0), m.sets
	for _, l := range []uint64{a, b} {
		c.Fill(l, Shared)
		m.fill(l, Shared)
	}
	c.Invalidate(a)
	m.invalidate(a)
	if st := c.Lookup(b); st != Shared {
		t.Fatalf("Lookup past an invalid way = %v, want a Shared hit", st)
	}
	m.lookup(b)
	if ev, evs := c.Fill(b, Modified); evs != Invalid || c.Peek(b) != Modified || c.Peek(a) != Invalid {
		t.Fatalf("Fill after the Lookup evicted (%d,%v); line %d is %v", ev, evs, b, c.Peek(b))
	}
	m.fill(b, Modified)

	span := m.sets * uint64(m.ways+3) // lines alias, so sets overflow
	fill := func(op int, line uint64, st LineState) {
		t.Helper()
		ev, evs := c.Fill(line, st)
		wev, wevs := m.fill(line, st)
		if ev != wev || evs != wevs {
			t.Fatalf("op %d Fill(%d) evicted (%d,%v), model (%d,%v)", op, line, ev, evs, wev, wevs)
		}
	}
	setState := func(line uint64, st LineState) {
		if next(4) == 0 {
			st = Invalid
		}
		c.SetState(line, st)
		m.setState(line, st)
	}
	lookup := func(op int, line uint64) {
		t.Helper()
		if got, want := c.Lookup(line), m.lookup(line); got != want {
			t.Fatalf("op %d Lookup(%d) = %v, model %v", op, line, got, want)
		}
	}
	pairs := 0
	for op := 0; op < 40000; op++ {
		line := next(span)
		st := LineState(1 + next(3))
		switch k := next(12); {
		case k < 3:
			lookup(op, line)
		case k < 5:
			fill(op, line, st)
		case k < 6:
			if got, want := c.Invalidate(line), m.invalidate(line); got != want {
				t.Fatalf("op %d Invalidate(%d) = %v, model %v", op, line, got, want)
			}
		case k < 7:
			setState(line, st)
		case k < 8:
			if got, want := c.Peek(line), m.peek(line); got != want {
				t.Fatalf("op %d Peek(%d) = %v, model %v", op, line, got, want)
			}
		default:
			// Lookup, maybe one call on this line or on another line
			// of its set, then SetState or Fill of the line.
			lookup(op, line)
			other := line%m.sets + m.sets*next(m.ways+3)
			if next(2) == 0 {
				other = line
			}
			switch next(6) {
			case 0:
				c.Peek(other)
				m.peek(other)
			case 1:
				c.Invalidate(other)
				m.invalidate(other)
			case 2:
				setState(other, LineState(1+next(3)))
			case 3:
				lookup(op, other)
			}
			if next(2) == 0 {
				setState(line, st)
			} else {
				fill(op, line, st)
			}
			if c.way != nil {
				t.Fatalf("op %d: a way is still remembered after SetState or Fill", op)
			}
			pairs++
		}
		if c.Peek(line) != m.peek(line) {
			t.Fatalf("op %d: line %d is %v, model %v", op, line, c.Peek(line), m.peek(line))
		}
	}
	if c.Hits != m.hits || c.Misses != m.miss {
		t.Fatalf("hits/misses = %d/%d, model %d/%d", c.Hits, c.Misses, m.hits, m.miss)
	}
	if c.Hits == 0 || c.Misses == 0 || pairs == 0 {
		t.Fatal("trace exercised only hits, only misses, or no Lookup pairs")
	}
}

// TestFastmodMatchesRemainder checks the division-free set and home
// indices against %: set counts 1, 64, 512 and 2560, every core count
// up to 1024, on seeded lines below 2^32 and on seeded and edge lines
// at and above it, where fastmod must fall back to %.
func TestFastmodMatchesRemainder(t *testing.T) {
	x := uint64(7)
	lines := []uint64{0, 1, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<40 + 12345, 1<<64 - 1}
	for len(lines) < 2000 {
		x = x*6364136223846793005 + 1442695040888963407
		lines = append(lines, x>>32, x>>(8+x%24)) // below 2^32; up to 2^56
	}
	for _, g := range []struct{ size, ways, sets int }{
		{256, 4, 1}, {32 << 10, 8, 64}, {256 << 10, 8, 512}, {2560 << 10, 16, 2560},
	} {
		c := NewCache(g.size, g.ways, 64)
		for _, line := range lines {
			want := int(line%uint64(g.sets)) * g.ways
			if got := c.set(line); &got[0] != &c.lines[want] || len(got) != g.ways {
				t.Fatalf("%d sets: set(%d) is not ways %d..%d", g.sets, line, want, want+g.ways-1)
			}
		}
	}
	for cores := uint64(1); cores <= 1024; cores++ {
		f := newFastmod(cores)
		for _, line := range lines {
			if got, want := f.mod(line), line%cores; got != want {
				t.Fatalf("%d cores: home of line %d = %d, want %d", cores, line, got, want)
			}
		}
	}
	cfg := wideConfig()
	cfg.L1Size, cfg.L2Size, cfg.L3SlicePerCore = 1024, 1024, 1024
	s := New(cfg)
	for _, line := range lines {
		if got, want := s.home(line), int(line%uint64(s.Cores())); got != want {
			t.Fatalf("System.home(%d) = %d, want %d", line, got, want)
		}
	}
}

// TestDirTableMatchesMap replays a seeded trace of inserts, lookups and
// sharer updates on the directory table and on a Go map of owners and
// sharer words, at one, three and sixteen sharer words per record. The
// keys include line 0 (key 0 is the empty marker, so line 0 is stored
// as 1), runs of lines that share one home slot, and lines homed in the
// last slot, whose probes wrap. The trace inserts a few thousand
// records, so their words span several chunks, and grows the table
// several times; after each doubling and at the end every record is
// checked against the map.
func TestDirTableMatchesMap(t *testing.T) {
	for _, words := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("words=%d", words), func(t *testing.T) {
			tab := newDirTable(words)
			type refEntry struct {
				owner   int
				sharers []uint64
			}
			ref := map[uint64]*refEntry{}
			var inserted []uint64 // ref's keys, in insertion order
			keys := []uint64{0}
			var shared, wrap int
			for line := uint64(1); shared < 12 || wrap < 12; line++ {
				switch tab.home(line) {
				case tab.home(0):
					keys, shared = append(keys, line), shared+1
				case uint64(len(tab.recs) - 1):
					keys, wrap = append(keys, line), wrap+1
				}
			}
			x := uint64(42 + words)
			next := func(n uint64) uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return (x >> 33) % n
			}
			cores := uint64(64 * words)
			check := func(op int, line uint64, d dirEntry, r *refEntry) {
				t.Helper()
				n := 0
				for wi, w := range r.sharers {
					if got := d.sharers[wi]; got != w {
						t.Fatalf("op %d line %d: sharer word %d = %#x, map %#x", op, line, wi, got, w)
					}
					n += bits.OnesCount64(w)
				}
				if d.owner() != r.owner || d.count() != n {
					t.Fatalf("op %d line %d: owner %d, %d sharers; map owner %d, %d sharers",
						op, line, d.owner(), d.count(), r.owner, n)
				}
			}
			checkAll := func(op int) {
				t.Helper()
				for _, line := range inserted {
					d, ok := tab.get(line)
					if !ok {
						t.Fatalf("op %d: line %d lost", op, line)
					}
					check(op, line, d, ref[line])
				}
			}
			slots := len(tab.recs)
			for op := 0; op < 20000; op++ {
				line := next(4096)
				if next(3) == 0 {
					line = keys[next(uint64(len(keys)))]
				}
				r, had := ref[line]
				if next(2) == 0 {
					d, fresh := tab.entry(line)
					if fresh == had {
						t.Fatalf("op %d entry(%d): fresh = %v, map had it = %v", op, line, fresh, had)
					}
					if fresh {
						r = &refEntry{owner: -1, sharers: make([]uint64, words)}
						ref[line] = r
						inserted = append(inserted, line)
					}
					check(op, line, d, r)
					core := int(next(cores))
					w, bit := &r.sharers[core>>6], uint64(1)<<(core&63)
					switch next(4) {
					case 0:
						d.add(core)
						*w |= bit
					case 1:
						d.remove(core)
						*w &^= bit
					case 2:
						d.only(core)
						clear(r.sharers)
						*w = bit
					default:
						r.owner = int(next(cores+1)) - 1
						d.setOwner(r.owner)
					}
					check(op, line, d, r)
				} else if d, ok := tab.get(line); ok != had {
					t.Fatalf("op %d get(%d) found = %v, map %v", op, line, ok, had)
				} else if ok {
					check(op, line, d, r)
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d entries, map %d", op, tab.n, len(ref))
				}
				if n := len(tab.recs); n != slots {
					if 1<<(64-tab.shift) != n || len(tab.words) != (tab.n+wordChunk-1)/wordChunk {
						t.Fatalf("op %d: %d slots, hash shift %d, %d word chunks for %d entries",
							op, n, tab.shift, len(tab.words), tab.n)
					}
					checkAll(op)
					slots = n
				}
				if 2*tab.n > slots {
					t.Fatalf("op %d: %d entries in %d slots", op, tab.n, slots)
				}
			}
			checkAll(20000)
			if slots < 8*dirTableMin {
				t.Fatalf("trace grew the table only to %d slots", slots)
			}
		})
	}
}

// wideConfig is a 2-socket, 65-core-per-socket system: 130 cores, so a
// sharer bitset spans three words and core 64 is bit 0 of word 1.
func wideConfig() Config {
	cfg := DefaultConfig()
	cfg.Sockets = 2
	cfg.CoresPerSocket = 65
	return cfg
}

// TestDirectoryBitsetInvalidationOrder checks the directory walk on a
// three-word bitset: sharers across all words, an owner that is not a
// sharer merged into the ascending order, the keeper skipped, and the
// Invalidations and Hops counts of the resulting invalidation round.
func TestDirectoryBitsetInvalidationOrder(t *testing.T) {
	s := New(wideConfig())
	if words := s.dir.width; words != 3 {
		t.Fatalf("words = %d, want 3 for %d cores", words, s.Cores())
	}
	const line = 0x777
	sharers := []int{129, 0, 63, 64, 70, 127, 128}
	d, _ := s.dir.entry(line)
	for _, c := range sharers {
		d.add(c)
		d.add(c) // idempotent
	}
	if d.count() != len(sharers) {
		t.Fatalf("n = %d, want %d", d.count(), len(sharers))
	}
	d.setOwner(65) // owns the line without being a sharer
	keeper := 64

	var order []int
	d.invalidees(keeper, func(c int) { order = append(order, c) })
	want := []int{0, 63, 65, 70, 127, 128, 129}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("invalidation order %v, want %v", order, want)
	}

	// Owner past every sharer, and owner that is a sharer (not repeated).
	d.setOwner(129)
	order = order[:0]
	d.invalidees(keeper, func(c int) { order = append(order, c) })
	if want := []int{0, 63, 70, 127, 128, 129}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("owner-as-sharer order %v, want %v", order, want)
	}
	d.remove(129)
	order = order[:0]
	d.invalidees(keeper, func(c int) { order = append(order, c) })
	if want := []int{0, 63, 70, 127, 128, 129}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("owner-after-sharers order %v, want %v", order, want)
	}
	d.setOwner(65)

	// The same round through the System: every invalidee's private copies
	// go, the keeper's stays, and the counters match the walk.
	for _, c := range append(sharers, 65) {
		s.l1[c].Fill(line, Shared)
		s.l2[c].Fill(line, Shared)
	}
	d.add(129)
	home := s.home(line)
	var wantHops uint64
	for _, c := range want {
		h, _ := s.hops(home, c)
		wantHops += h
	}
	s.invalidateAll(keeper, line, d)
	if s.Stats.Invalidations != uint64(len(want)) {
		t.Fatalf("Invalidations = %d, want %d", s.Stats.Invalidations, len(want))
	}
	if s.Stats.Hops != wantHops {
		t.Fatalf("Hops = %d, want %d", s.Stats.Hops, wantHops)
	}
	for _, c := range want {
		if s.l1[c].Peek(line) != Invalid || s.l2[c].Peek(line) != Invalid {
			t.Fatalf("core %d still holds the line", c)
		}
	}
	if s.l1[keeper].Peek(line) != Shared {
		t.Fatal("keeper lost its copy")
	}

	d.only(keeper)
	if d.count() != 1 || !d.has(keeper) || d.has(0) || d.has(129) {
		t.Fatalf("only(%d) left n=%d, words %x", keeper, d.count(), d.sharers)
	}
}

// TestDirectoryWideWriteInvalidatesAllWords drives the protocol on the
// 130-core system: readers in every bitset word, then one write.
func TestDirectoryWideWriteInvalidatesAllWords(t *testing.T) {
	s := New(wideConfig())
	const addr = 0x40000
	readers := []int{0, 1, 63, 64, 100, 127, 128, 129}
	for _, c := range readers {
		s.Access(c, addr, false)
	}
	line := s.l1[0].LineAddr(addr)
	d, _ := s.dir.get(line)
	if d.count() != len(readers) {
		t.Fatalf("directory tracks %d sharers, want %d", d.count(), len(readers))
	}
	before := s.Stats.Invalidations
	s.Access(5, addr, true)
	if got := s.Stats.Invalidations - before; got != uint64(len(readers)) {
		t.Fatalf("write sent %d invalidations, want %d", got, len(readers))
	}
	for _, c := range readers {
		if s.l1[c].Peek(line) != Invalid {
			t.Fatalf("reader %d kept its copy", c)
		}
	}
	d, _ = s.dir.get(line)
	if d.count() != 1 || !d.has(5) || d.owner() != 5 {
		t.Fatalf("after write: n=%d owner=%d", d.count(), d.owner())
	}
}

// TestFreshSystemBytes pins what building a 1024-core system costs the
// Go heap before its first access: the dense L1s and L2s (72 MB) and one
// index word per L3 set (10.5 MB), under 100 MB in all. Zeroed 16-way
// L3 sets would add 671 MB.
func TestFreshSystemBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket = 2, 512
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 100 {
		t.Fatalf("a fresh %d-core system allocated %.1f MB, want under 100", s.Cores(), mb)
	}
}
