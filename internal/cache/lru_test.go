package cache

import (
	"fmt"
	"testing"
)

func tkey(s string) Key { return NewEnc().Str("k", s).Sum() }

// TestLRUEvictionOrder pins least-recently-used eviction: touching an
// entry protects it, the coldest entry goes first.
func TestLRUEvictionOrder(t *testing.T) {
	t.Parallel()
	m := newMemLRU(30) // room for three 10-byte values
	v := make([]byte, 10)
	m.put(tkey("a"), v)
	m.put(tkey("b"), v)
	m.put(tkey("c"), v)
	if _, ok := m.get(tkey("a")); !ok { // promote a: b is now coldest
		t.Fatal("a missing before eviction")
	}
	m.put(tkey("d"), v) // over budget: must evict b
	if _, ok := m.get(tkey("b")); ok {
		t.Fatal("b survived eviction despite being least recent")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := m.get(tkey(k)); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
}

// TestLRUByteBudget pins that the resident byte total never exceeds the
// budget, and that eviction counts are reported.
func TestLRUByteBudget(t *testing.T) {
	t.Parallel()
	m := newMemLRU(100)
	for i := 0; i < 50; i++ {
		m.put(tkey(fmt.Sprintf("k%d", i)), make([]byte, 9))
	}
	var st Stats
	m.stats(&st)
	if st.BytesInMem > 100 {
		t.Fatalf("resident bytes %d exceed budget 100", st.BytesInMem)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 50 puts into a 100-byte budget")
	}
	if st.Entries > 11 {
		t.Fatalf("%d entries resident in a 100-byte budget of 9-byte values", st.Entries)
	}
}

// TestLRUOversizeValueNotCached pins the admission rule: a value larger
// than the whole budget is refused rather than evicting everything.
func TestLRUOversizeValueNotCached(t *testing.T) {
	t.Parallel()
	m := newMemLRU(64)
	m.put(tkey("small"), make([]byte, 8))
	m.put(tkey("huge"), make([]byte, 65))
	if _, ok := m.get(tkey("huge")); ok {
		t.Fatal("oversize value was cached")
	}
	if _, ok := m.get(tkey("small")); !ok {
		t.Fatal("oversize put evicted resident entries")
	}
}

// TestLRURefresh pins that re-putting a key updates the value and the
// byte accounting instead of duplicating the entry.
func TestLRURefresh(t *testing.T) {
	t.Parallel()
	m := newMemLRU(100)
	m.put(tkey("a"), make([]byte, 10))
	m.put(tkey("a"), make([]byte, 30))
	var st Stats
	m.stats(&st)
	if st.Entries != 1 {
		t.Fatalf("refresh duplicated the entry: %d entries", st.Entries)
	}
	if st.BytesInMem != 30 {
		t.Fatalf("refresh byte accounting: %d", st.BytesInMem)
	}
	v, ok := m.get(tkey("a"))
	if !ok || len(v) != 30 {
		t.Fatalf("refreshed value not returned: ok=%v len=%d", ok, len(v))
	}
}
