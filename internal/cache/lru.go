package cache

import "sync"

// memLRU is the in-memory tier: one mutex over a map and an intrusive
// doubly-linked recency list, with one byte budget. The list is
// circular around the sentinel head: head.next is most recent,
// head.prev least recent. Values are stored and returned by reference;
// callers must treat the byte slices as immutable.
type memLRU struct {
	mu      sync.Mutex
	entries map[Key]*lruEntry
	head    lruEntry // sentinel
	bytes   int64
	budget  int64

	hits, misses, puts, evictions uint64
}

type lruEntry struct {
	key        Key
	val        []byte
	prev, next *lruEntry
}

// newMemLRU builds an LRU with the given byte budget.
func newMemLRU(budget int64) *memLRU {
	m := &memLRU{entries: make(map[Key]*lruEntry), budget: budget}
	m.head.prev = &m.head
	m.head.next = &m.head
	return m
}

func (m *memLRU) unlink(e *lruEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (m *memLRU) pushFront(e *lruEntry) {
	e.prev = &m.head
	e.next = m.head.next
	e.next.prev = e
	m.head.next = e
}

// get returns the value for k and promotes it to most-recent.
func (m *memLRU) get(k Key) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.unlink(e)
	m.pushFront(e)
	return e.val, true
}

// put inserts (or refreshes) k→v at most-recent and evicts from the
// least-recent end until the LRU is back under budget. A value larger
// than the whole budget is not cached at all: admitting it would evict
// every entry to hold one that could never be joined by another.
func (m *memLRU) put(k Key, v []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int64(len(v)) > m.budget {
		return
	}
	if e, ok := m.entries[k]; ok {
		m.bytes += int64(len(v)) - int64(len(e.val))
		e.val = v
		m.unlink(e)
		m.pushFront(e)
	} else {
		e = &lruEntry{key: k, val: v}
		m.entries[k] = e
		m.pushFront(e)
		m.bytes += int64(len(v))
		m.puts++
	}
	for m.bytes > m.budget {
		last := m.head.prev
		m.unlink(last)
		delete(m.entries, last.key)
		m.bytes -= int64(len(last.val))
		m.evictions++
	}
}

// stats accumulates the LRU's counters into st.
func (m *memLRU) stats(st *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st.Hits += m.hits
	st.Misses += m.misses
	st.Puts += m.puts
	st.Evictions += m.evictions
	st.BytesInMem += m.bytes
	st.Entries += len(m.entries)
}
