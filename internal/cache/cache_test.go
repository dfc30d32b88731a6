package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheGetPut(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("gp")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("v"))
	if v, ok := c.Get(k); !ok || string(v) != "v" {
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
	v, ok := c2.Get(k)
	if !ok || string(v) != "persisted" {
		t.Fatalf("restart get = %q, %v", v, ok)
	}
	st := c2.Stats()
	if st.SpillHits != 1 {
		t.Fatalf("disk hit not recorded: %+v", st)
	}
	// Promoted: the next get is a memory hit, not another disk read.
	c2.Get(k)
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
	if v, ok := c.Get(a); !ok || len(v) != 512 {
		t.Fatalf("half-budget value not served from memory: ok=%v len=%d", ok, len(v))
	}
	c.Put(b, make([]byte, 513))
	if _, ok := c.Get(a); ok {
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
	v, ok := c.Get(k)
	if !ok || string(v) != "survivor" {
		t.Fatalf("evicted entry not served from disk: %q, %v", v, ok)
	}
	if st := c.Stats(); st.SpillHits == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v", st)
	}
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
}

// TestGetOrComputeErrorNotCached pins retry semantics: a failed compute
// leaves nothing behind — the next caller recomputes.
func TestGetOrComputeErrorNotCached(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("err")
	boom := errors.New("boom")
	if _, err := getOrCompute(c, k, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := getOrCompute(c, k, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry = %q, %v", v, err)
	}
}

// TestCoalescingExactlyOnce is the acceptance-criteria test: K
// duplicate in-flight configs execute the cell exactly once, every
// caller gets the same bytes, and the waiters are counted.
func TestCoalescingExactlyOnce(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("dup")
	const K = 16
	var computes atomic.Int32
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	results := make([][]byte, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = getOrCompute(c, k, func() ([]byte, error) {
				computes.Add(1)
				once.Do(func() { close(inFlight) })
				<-release // hold the flight open until all K have joined
				return []byte("once"), nil
			})
		}(i)
	}
	<-inFlight
	waitFor(t, func() bool { return c.Stats().Coalesced == K-1 }, "K-1 waiters to coalesce")
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil || !bytes.Equal(results[i], []byte("once")) {
			t.Fatalf("caller %d: %q, %v", i, results[i], errs[i])
		}
	}
}

// TestLeaderPanicReleasesWaiters pins panic safety: the leader's panic
// propagates on the leader's goroutine, waiters get ErrLeaderPanic
// (never a hang), and the key stays retryable.
func TestLeaderPanicReleasesWaiters(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := tkey("panic")
	armed := make(chan struct{})
	release := make(chan struct{})

	waitErr := make(chan error, 1)
	go func() {
		<-armed
		_, err := getOrCompute(c, k, func() ([]byte, error) {
			return []byte("waiter must not compute"), nil
		})
		waitErr <- err
	}()

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		getOrCompute(c, k, func() ([]byte, error) {
			close(armed)
			<-release
			panic("cell exploded")
		})
	}()

	waitFor(t, func() bool { return c.Stats().Coalesced == 1 }, "waiter to coalesce")
	close(release)
	if r := <-leaderDone; r == nil || !strings.Contains(fmt.Sprint(r), "cell exploded") {
		t.Fatalf("leader panic = %v", r)
	}
	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrLeaderPanic) {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter hung after leader panic")
	}
	// The key is retryable: the failed flight was retired.
	v, err := getOrCompute(c, k, func() ([]byte, error) { return []byte("retried"), nil })
	if err != nil || string(v) != "retried" {
		t.Fatalf("retry after panic = %q, %v", v, err)
	}
}

// TestGetOrComputeConcurrentMixedKeys is the race-detector workload:
// many goroutines over a small key space with eviction pressure (seven
// 4-byte values against a 16-byte budget), disk spill, and coalescing
// all active at once.
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
				v, err := getOrCompute(c, k, func() ([]byte, error) {
					return []byte(want), nil
				})
				if err != nil || string(v) != want {
					t.Errorf("key %d: %q, %v", i, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Computes > keys*G || st.Evictions == 0 {
		t.Fatalf("computes exploded or nothing evicted: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	c.Put(tkey("s"), []byte("v"))
	c.Get(tkey("s"))
	s := c.Stats().String()
	for _, want := range []string{"hits", "misses", "coalesced", "evictions"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats string missing %q: %s", want, s)
		}
	}
}

// getOrCompute is GetOrComputeCtx with no deadline and the serving
// tier dropped.
func getOrCompute(c *Cache, k Key, compute func() ([]byte, error)) ([]byte, error) {
	v, _, err := c.GetOrComputeCtx(context.Background(), k, compute)
	return v, err
}

// waitFor polls cond (a cheap, race-free predicate) until it holds or
// the deadline passes. Tests use it only to sequence goroutines, never
// to assert timing.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
