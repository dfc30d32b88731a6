package carat

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/mem"
)

// wordMem is a sparse word-addressed Memory that records every Move.
type wordMem struct {
	words map[mem.Addr]uint64
	moves []move
}

type move struct {
	src, dst mem.Addr
	n        uint64
}

func (w *wordMem) Load(a mem.Addr) uint64     { return w.words[a] }
func (w *wordMem) Store(a mem.Addr, v uint64) { w.words[a] = v }

func (w *wordMem) Move(src, dst mem.Addr, n uint64) {
	w.moves = append(w.moves, move{src, dst, n})
	buf := make([]uint64, (n+7)/8)
	for i := range buf {
		buf[i] = w.words[src+mem.Addr(8*i)]
	}
	for i, v := range buf {
		w.words[dst+mem.Addr(8*i)] = v
	}
}

func (w *wordMem) clone() *wordMem {
	c := &wordMem{words: make(map[mem.Addr]uint64, len(w.words))}
	for a, v := range w.words { // detvet:ok — copies a map
		c.words[a] = v
	}
	return c
}

// refEscapes is the escape set as a map, relocated by the original
// algorithm: collect every location, sort, patch in that order, and
// rebuild the set.
type refEscapes map[mem.Addr]bool

func (e refEscapes) relocate(m Memory, r Region, newBase mem.Addr) (fixed int64, collided bool) {
	delta := int64(newBase) - int64(r.Base)
	m.Move(r.Base, newBase, r.Size)
	locs := make([]mem.Addr, 0, len(e))
	for loc := range e { // detvet:ok — collected, then sorted
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	next := make(refEscapes, len(e))
	for _, loc := range locs {
		newLoc := loc
		if r.Contains(loc) {
			newLoc = mem.Addr(int64(loc) + delta)
			collided = collided || (e[newLoc] && !r.Contains(newLoc))
		}
		if v := m.Load(newLoc); r.Contains(mem.Addr(v)) {
			m.Store(newLoc, uint64(int64(v)+delta))
			fixed++
		}
		next[newLoc] = true
	}
	clear(e)
	for loc := range next { // detvet:ok — copies a set
		e[loc] = true
	}
	return fixed, collided
}

func (e refEscapes) sorted() []mem.Addr {
	locs := make([]mem.Addr, 0, len(e))
	for loc := range e { // detvet:ok — collected, then sorted
		locs = append(locs, loc)
	}
	slices.Sort(locs)
	return locs
}

// TestRelocateMatchesMapAndSort replays seeded fragmentations on the
// table and on the original map-and-sort escape algorithm. Each trace
// places regions with gaps in an arena, stores pointers between them
// (inside regions, and in gap words no region ever held), frees some,
// then compacts or evacuates. Every move Compact or Evacuate made is
// replayed on the reference, and memory, escape set and patch counts
// must agree. Stale escapes in the gaps make moved locations land on
// existing escapes, where two visits patch one word and the two
// locations become one; the traces must hit it.
func TestRelocateMatchesMapAndSort(t *testing.T) {
	collisions := 0
	for seed := uint64(1); seed <= 300; seed++ {
		x := seed
		next := func(n uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return (x >> 33) % n
		}
		const arena = mem.Addr(0x10000)
		m := &wordMem{words: map[mem.Addr]uint64{}}
		tab := NewTable()
		ref := refEscapes{}
		var bases []mem.Addr
		cursor := arena
		for k := 0; k < 4+int(next(40)); k++ {
			cursor += mem.Addr(8 * next(12))
			size := 8 * (1 + next(8))
			tab.TrackAlloc(cursor, size)
			bases = append(bases, cursor)
			cursor += mem.Addr(size)
		}
		end := cursor
		escape := func(loc mem.Addr, val uint64) {
			m.Store(loc, val)
			if tab.TrackEscape(loc, val) != tab.Costs.EscapeCheck {
				ref[loc] = true
			}
		}
		for k := 0; k < int(next(3*uint64(len(bases)))); k++ {
			loc := arena + mem.Addr(8*next(uint64(end-arena)/8))
			tgt := bases[next(uint64(len(bases)))]
			escape(loc, uint64(tgt)+8*next(2))
		}
		for _, b := range bases {
			if next(3) == 0 {
				r, _ := tab.Lookup(b)
				tab.TrackFree(b)
				for loc := range ref { // detvet:ok — deletes only
					if r.Contains(loc) {
						delete(ref, loc)
					}
				}
			}
		}
		want := m.clone()
		m.moves = nil
		var err error
		if next(4) == 0 {
			_, err = tab.Evacuate(m, end+mem.Addr(64*next(4)), 8)
		} else {
			_, err = tab.Compact(m, arena, 8<<next(2))
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var fixed int64
		for _, mv := range m.moves {
			f, c := ref.relocate(want, Region{Base: mv.src, Size: mv.n}, mv.dst)
			fixed += f
			if c {
				collisions++
			}
		}
		if tab.PointersFixed != fixed {
			t.Fatalf("seed %d: %d pointers fixed, reference %d", seed, tab.PointersFixed, fixed)
		}
		if got, w := tab.escapes, ref.sorted(); !slices.Equal(got, w) {
			t.Fatalf("seed %d: escapes %#x, reference %#x", seed, got, w)
		}
		for a, v := range want.words { // detvet:ok — compares every word
			if m.words[a] != v {
				t.Fatalf("seed %d: word %#x = %#x, reference %#x", seed, a, m.words[a], v)
			}
		}
		if len(m.words) != len(want.words) {
			t.Fatalf("seed %d: %d words written, reference %d", seed, len(m.words), len(want.words))
		}
	}
	if collisions == 0 {
		t.Fatal("no relocation moved an escape onto another")
	}
	t.Logf("%d relocations landed an escape on another", collisions)
}
