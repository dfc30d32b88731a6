package farmem

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestPageSwapperVictimIsMinLRU replays a seeded skewed trace under
// capacity pressure and checks every eviction against a brute-force
// scan: the victim must be the resident page with the smallest lru
// tick, exactly the page the resident list's tail names, and the list
// must stay the resident pages in descending lru order.
func TestPageSwapperVictimIsMinLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalCapacity = 16 * cfg.PageSize
	p := NewPageSwapper(cfg)
	rng := sim.NewRNG(11)
	const pages = 64
	evictions := 0
	for i := 0; i < 20_000; i++ {
		num := uint64(rng.Intn(pages))
		if rng.Float64() < 0.7 {
			num = uint64(rng.Intn(pages / 8)) // hot set
		}
		// Brute force: the oldest resident page, unless this access hits.
		var want *page
		for n := uint64(0); n < pages; n++ {
			pg := p.pages[n]
			if pg == nil || !pg.local {
				continue
			}
			if want == nil || pg.lru < want.lru {
				want = pg
			}
		}
		hit := p.pages[num] != nil && p.pages[num].local
		before := p.st.Evictions
		p.Access(mem.Addr(num*cfg.PageSize + uint64(rng.Intn(int(cfg.PageSize)))))
		switch p.st.Evictions - before {
		case 0:
		case 1:
			if hit {
				t.Fatalf("access %d: hit on page %d evicted a page", i, num)
			}
			if want.local {
				t.Fatalf("access %d: min-lru page %d (lru %d) still resident after an eviction", i, want.num, want.lru)
			}
			evictions++
		default:
			t.Fatalf("access %d: %d evictions for one fault", i, p.st.Evictions-before)
		}

		// The list is exactly the resident pages, newest first.
		resident, prev := 0, int64(1<<62)
		for pg := p.resident.next; pg != &p.resident; pg = pg.next {
			if !pg.local || pg.lru >= prev || pg.next.prev != pg {
				t.Fatalf("access %d: resident list broken at page %d", i, pg.num)
			}
			prev = pg.lru
			resident++
		}
		if uint64(resident)*cfg.PageSize != p.localBytes {
			t.Fatalf("access %d: list holds %d pages, localBytes %d", i, resident, p.localBytes)
		}
	}
	if evictions < 1000 {
		t.Fatalf("only %d evictions: trace too light to test the LRU", evictions)
	}
}
