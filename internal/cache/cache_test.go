package cache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("gp")
	if _, _, ok := c.Get(k, nil); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("v"))
	if v, _, ok := c.Get(k, nil); !ok || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheSpillAcrossRestart pins the disk tier: a second Cache
// instance over the same directory — a simulated process restart —
// serves the first instance's entries, promoting them into memory.
func TestCacheSpillAcrossRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c1 := New(Config{Dir: dir})
	k := tkey("restart")
	c1.Put(k, []byte("persisted"))
	if st := c1.Stats(); st.SpillWrite != 1 {
		t.Fatalf("spill write not recorded: %+v", st)
	}

	c2 := New(Config{Dir: dir})
	v, _, ok := c2.Get(k, nil)
	if !ok || string(v) != "persisted" {
		t.Fatalf("restart get = %q, %v", v, ok)
	}
	st := c2.Stats()
	if st.SpillHits != 1 {
		t.Fatalf("disk hit not recorded: %+v", st)
	}
	// Promoted: the next get is a memory hit, not another disk read.
	c2.Get(k, nil)
	if st := c2.Stats(); st.SpillReads != 1 {
		t.Fatalf("promotion did not stick: %+v", st)
	}
}

// TestCacheOneBudget pins that the memory tier has one budget: a value
// of half the budget is admitted and served from memory, and the next
// such value evicts the least recent one.
func TestCacheOneBudget(t *testing.T) {
	t.Parallel()
	c := New(Config{MemBudget: 1 << 10})
	a, b := tkey("half-a"), tkey("half-b")
	c.Put(a, make([]byte, 512))
	if v, _, ok := c.Get(a, nil); !ok || len(v) != 512 {
		t.Fatalf("half-budget value not served from memory: ok=%v len=%d", ok, len(v))
	}
	c.Put(b, make([]byte, 513))
	if _, _, ok := c.Get(a, nil); ok {
		t.Fatal("least recent value survived a put over the budget")
	}
	if st := c.Stats(); st.Entries != 1 || st.BytesInMem != 513 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheMemEvictionFallsBackToDisk pins the two tiers composing: an
// entry evicted from memory for budget is still served from disk.
func TestCacheMemEvictionFallsBackToDisk(t *testing.T) {
	t.Parallel()
	c := New(Config{MemBudget: 64, Dir: t.TempDir()})
	k := tkey("evicted")
	c.Put(k, []byte("survivor"))
	for i := 0; i < 8; i++ {
		c.Put(tkey(fmt.Sprintf("filler%d", i)), make([]byte, 32))
	}
	v, _, ok := c.Get(k, nil)
	if !ok || string(v) != "survivor" {
		t.Fatalf("evicted entry not served from disk: %q, %v", v, ok)
	}
	if st := c.Stats(); st.SpillHits == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGetSources walks one key through every serving tier and checks
// the reported Source at each step.
func TestGetSources(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	k := tkey("sources")
	c := New(Config{Dir: dir})
	if _, _, ok := c.Get(k, nil); ok {
		t.Fatal("hit before any put")
	}
	c.Put(k, []byte("v"))
	if _, src, ok := c.Get(k, nil); !ok || src != SourceMem {
		t.Fatalf("warm: src %v ok %v, want mem", src, ok)
	}
	// A fresh cache over the same directory simulates a restart: the
	// value must come back from disk and be promoted.
	c2 := New(Config{Dir: dir})
	if _, src, ok := c2.Get(k, nil); !ok || src != SourceDisk {
		t.Fatalf("restart: src %v ok %v, want disk", src, ok)
	}
	if _, src, ok := c2.Get(k, nil); !ok || src != SourceMem {
		t.Fatalf("promoted: src %v ok %v, want mem", src, ok)
	}
}

// getOrCompute is the get-or-compute pattern core.CachedTablesCtx
// builds on the cache: Get, and on a miss compute and Put only a
// successful result.
func getOrCompute(c *Cache, k Key, compute func() ([]byte, error)) ([]byte, error) {
	if v, _, ok := c.Get(k, nil); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	c.Put(k, v)
	return v, nil
}

func TestGetOrComputeBasics(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("goc")
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("r"), nil }
	for i := 0; i < 3; i++ {
		v, err := getOrCompute(c, k, compute)
		if err != nil || string(v) != "r" {
			t.Fatalf("getOrCompute = %q, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	if st := c.Stats(); st.Puts != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGetOrComputeErrorNotCached: a failed compute stores nothing, so
// the next call misses and recomputes.
func TestGetOrComputeErrorNotCached(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("err")
	boom := errors.New("boom")
	if _, err := getOrCompute(c, k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("failed compute left an entry: %+v", st)
	}
	v, err := getOrCompute(c, k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry = %q, %v", v, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGetOrComputeConcurrentMixedKeys is the race-detector workload:
// many goroutines running get-or-compute by hand (Get, and on a miss
// Put, the pattern core.CachedTablesCtx uses) over a small key space,
// with eviction pressure (seven 4-byte values against a 16-byte
// budget) and disk spill active at once. Every value read back is the
// one stored under its key.
func TestGetOrComputeConcurrentMixedKeys(t *testing.T) {
	t.Parallel()
	c := New(Config{MemBudget: 16, Dir: t.TempDir()})
	const G, rounds, keys = 8, 50, 7
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % keys
				k := tkey(fmt.Sprintf("mixed%d", i))
				want := fmt.Sprintf("val%d", i)
				v, _, ok := c.Get(k, nil)
				if !ok {
					c.Put(k, []byte(want))
					continue
				}
				if string(v) != want {
					t.Errorf("key %d: %q, want %q", i, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions == 0 || st.SpillHits == 0 {
		t.Fatalf("nothing evicted or nothing served from disk: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	c.Put(tkey("s"), []byte("v"))
	c.Get(tkey("s"), nil)
	s := c.Stats().String()
	for _, want := range []string{"hits", "misses", "puts", "evictions"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats string missing %q: %s", want, s)
		}
	}
}
