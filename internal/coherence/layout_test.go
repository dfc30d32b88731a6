package coherence

import (
	"fmt"
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

// TestCacheMatchesLRUModel replays seeded operation traces on the flat
// set layout and on the recency-list model, comparing every result. The
// geometries cover the L3 slice (2560 sets: not a power of two, so the
// set index is a real division), a single set, and a small odd count.
func TestCacheMatchesLRUModel(t *testing.T) {
	geoms := []struct {
		name                 string
		size, ways, lineSize int
		sets                 uint64
	}{
		{"l3-slice-2560x16", 2560 << 10, 16, 64, 2560},
		{"one-set-4way", 256, 4, 64, 1},
		{"three-sets-2way", 384, 2, 64, 3},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c := NewCache(g.size, g.ways, g.lineSize)
			if c.sets != g.sets {
				t.Fatalf("sets = %d, want %d", c.sets, g.sets)
			}
			m := &lruModel{sets: g.sets, ways: uint64(g.ways), res: map[uint64][]modelLine{}}
			// A few sets' worth of lines, aliased so sets overflow.
			span := g.sets * uint64(g.ways+3)
			if span > 4096 {
				span = 7 * g.sets // 7 lines per set: 16 ways never fill
			}
			x := uint64(g.sets)
			next := func(n uint64) uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return (x >> 33) % n
			}
			if g.sets == 2560 {
				// Overflow a handful of sets too: 20 lines aliased onto
				// each of sets 5 and 2559.
				for k := uint64(0); k < 40; k++ {
					line := 5 + (k%20)*2560
					if k >= 20 {
						line = 2559 + (k%20)*2560
					}
					ev, evs := c.Fill(line, Shared)
					wev, wevs := m.fill(line, Shared)
					if ev != wev || evs != wevs {
						t.Fatalf("aliased fill %d: evicted (%d,%v), model (%d,%v)", line, ev, evs, wev, wevs)
					}
				}
			}
			// A hit on a way past an invalid one: the fused operation must
			// find the line, not fill the free way before it.
			a, b := uint64(0), g.sets
			for _, l := range []uint64{a, b} {
				c.Fill(l, Shared)
				m.fill(l, Shared)
			}
			c.Invalidate(a)
			m.invalidate(a)
			if st, ev, evs := c.LookupOrFill(b, Modified); st != Shared || evs != Invalid {
				t.Fatalf("LookupOrFill past an invalid way = (%v, %d, %v), want a Shared hit", st, ev, evs)
			}
			m.lookup(b)
			for op := 0; op < 20000; op++ {
				line := next(span)
				st := LineState(1 + next(3))
				switch k := next(11); {
				case k < 4:
					if got, want := c.Lookup(line), m.lookup(line); got != want {
						t.Fatalf("op %d Lookup(%d) = %v, model %v", op, line, got, want)
					}
				case k < 7:
					ev, evs := c.Fill(line, st)
					wev, wevs := m.fill(line, st)
					if ev != wev || evs != wevs {
						t.Fatalf("op %d Fill(%d) evicted (%d,%v), model (%d,%v)", op, line, ev, evs, wev, wevs)
					}
				case k < 8:
					if got, want := c.Invalidate(line), m.invalidate(line); got != want {
						t.Fatalf("op %d Invalidate(%d) = %v, model %v", op, line, got, want)
					}
				case k < 9:
					if next(4) == 0 {
						st = Invalid
					}
					c.SetState(line, st)
					m.setState(line, st)
				case k < 10:
					if got, want := c.Peek(line), m.peek(line); got != want {
						t.Fatalf("op %d Peek(%d) = %v, model %v", op, line, got, want)
					}
				default:
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
				}
			}
			if c.Hits != m.hits || c.Misses != m.miss {
				t.Fatalf("hits/misses = %d/%d, model %d/%d", c.Hits, c.Misses, m.hits, m.miss)
			}
			if c.Hits == 0 || c.Misses == 0 {
				t.Fatal("trace exercised only hits or only misses")
			}
		})
	}
}

// TestDirTableMatchesMap replays a seeded put/get trace on the
// directory table and on a Go map. The keys include line 0 (key 0 is
// the empty marker, so line 0 is stored as 1), runs of lines that share
// one home slot, and lines homed in the last slot, whose probes wrap;
// the trace grows the table several times.
func TestDirTableMatchesMap(t *testing.T) {
	tab := newDirTable()
	ref := map[uint64]*dirState{}
	last := uint64(len(tab.slots) - 1)
	keys := []uint64{0}
	var shared, wrap int
	for line := uint64(1); shared < 12 || wrap < 12; line++ {
		switch tab.home(line) {
		case tab.home(0):
			keys, shared = append(keys, line), shared+1
		case last:
			keys, wrap = append(keys, line), wrap+1
		}
	}
	x := uint64(42)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for op := 0; op < 20000; op++ {
		line := next(4096)
		if next(3) == 0 {
			line = keys[next(uint64(len(keys)))]
		}
		if next(2) == 0 {
			d := &dirState{owner: op}
			tab.put(line, d)
			ref[line] = d
		} else if got, want := tab.get(line), ref[line]; got != want {
			t.Fatalf("op %d get(%d) = %p, map %p", op, line, got, want)
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d entries, map %d", op, tab.n, len(ref))
		}
		if 2*tab.n > len(tab.slots) || 1<<(64-tab.shift) != len(tab.slots) {
			t.Fatalf("op %d: %d entries in %d slots, hash shift %d", op, tab.n, len(tab.slots), tab.shift)
		}
	}
	for _, line := range keys {
		if tab.get(line) != ref[line] {
			t.Fatalf("get(%d) = %p, map %p", line, tab.get(line), ref[line])
		}
	}
	if len(tab.slots) < 8*dirTableMin {
		t.Fatalf("trace grew the table only to %d slots", len(tab.slots))
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
	if s.words != 3 {
		t.Fatalf("words = %d, want 3 for %d cores", s.words, s.Cores())
	}
	const line = 0x777
	sharers := []int{129, 0, 63, 64, 70, 127, 128}
	d := s.newDir(-1)
	for _, c := range sharers {
		d.add(c)
		d.add(c) // idempotent
	}
	if d.n != len(sharers) {
		t.Fatalf("n = %d, want %d", d.n, len(sharers))
	}
	d.owner = 65 // owns the line without being a sharer
	keeper := 64

	var order []int
	d.invalidees(keeper, func(c int) { order = append(order, c) })
	want := []int{0, 63, 65, 70, 127, 128, 129}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("invalidation order %v, want %v", order, want)
	}

	// Owner past every sharer, and owner that is a sharer (not repeated).
	d.owner = 129
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
	d.owner = 65

	// The same round through the System: every invalidee's private copies
	// go, the keeper's stays, and the counters match the walk.
	for _, c := range append(sharers, 65) {
		s.l1[c].Fill(line, Shared)
		s.l2[c].Fill(line, Shared)
	}
	d.add(129)
	s.dir.put(line, d)
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
	if d.n != 1 || !d.has(keeper) || d.has(0) || d.has(129) {
		t.Fatalf("only(%d) left n=%d, words %x", keeper, d.n, d.sharers)
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
	d := s.dir.get(line)
	if d.n != len(readers) {
		t.Fatalf("directory tracks %d sharers, want %d", d.n, len(readers))
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
	if d.n != 1 || !d.has(5) || d.owner != 5 {
		t.Fatalf("after write: n=%d owner=%d", d.n, d.owner)
	}
}
