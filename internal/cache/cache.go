package cache

import (
	"fmt"
	"sync/atomic"
)

// Source classifies where a table set came from: the experiment
// service reports it for every finished job (terminal event and
// X-Result-Source header), so a client can see which tier served it.
type Source uint8

const (
	// SourceComputed: the caller missed and ran the compute itself.
	SourceComputed Source = iota
	// SourceMem: served from the in-memory LRU.
	SourceMem
	// SourceDisk: served from the disk spill (and promoted to memory).
	SourceDisk
)

// String renders the source as its event-stream token.
func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMem:
		return "mem"
	case SourceDisk:
		return "disk"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Config sizes a Cache. The zero Config is usable: 64 MiB in-memory
// budget, no disk spill.
type Config struct {
	// MemBudget is the in-memory byte budget. 0 means 64 MiB.
	MemBudget int64
	// Dir is the disk-spill directory. Empty disables spill. The
	// interweave CLI defaults it from $INTERWEAVE_CACHE_DIR.
	Dir string
}

// Stats is a point-in-time snapshot of cache activity. The JSON tags
// are its wire form in the experiment service's stats body.
type Stats struct {
	Hits       uint64 `json:"hits"`         // in-memory LRU hits
	Misses     uint64 `json:"misses"`       // in-memory LRU misses
	SpillHits  uint64 `json:"spill_hits"`   // misses served from disk (and promoted)
	SpillReads uint64 `json:"spill_reads"`  // disk lookups attempted after a memory miss
	SpillWrite uint64 `json:"spill_writes"` // entries written to disk
	SpillErr   uint64 `json:"spill_errors"` // best-effort disk writes that failed
	Puts       uint64 `json:"puts"`         // new entries admitted to memory
	Evictions  uint64 `json:"evictions"`    // entries evicted for byte budget
	BytesInMem int64  `json:"bytes_in_mem"` // resident value bytes
	Entries    int    `json:"entries"`      // resident entries
}

// String renders the snapshot as the -cache-stats report line set.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cache: %d hits, %d misses (%d served from disk), %d puts\n"+
			"cache: memory %d entries / %d bytes, %d evictions; disk %d writes, %d write errors",
		s.Hits, s.Misses, s.SpillHits, s.Puts,
		s.Entries, s.BytesInMem, s.Evictions, s.SpillWrite, s.SpillErr)
}

// Cache composes the two tiers: an LRU over disk spill.
type Cache struct {
	mem  *memLRU
	disk *diskStore

	spillHits, spillReads, spillWrite, spillErr atomic.Uint64
}

// New builds a cache from cfg (see Config for zero-value defaults).
func New(cfg Config) *Cache {
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Cache{
		mem:  newMemLRU(budget),
		disk: newDiskStore(cfg.Dir),
	}
}

// Get looks k up in memory, then on disk, and reports the tier that
// served it; a disk hit is promoted into memory. valid, when non-nil,
// vets the bytes found in either tier, and an entry it rejects is a
// miss: a rejected disk entry is neither counted as served from disk
// nor promoted. The returned bytes are shared — callers must not mutate
// them.
func (c *Cache) Get(k Key, valid func([]byte) bool) ([]byte, Source, bool) {
	if v, ok := c.mem.get(k); ok {
		if valid != nil && !valid(v) {
			return nil, SourceMem, false
		}
		return v, SourceMem, true
	}
	if c.disk == nil {
		return nil, SourceMem, false
	}
	c.spillReads.Add(1)
	v, ok := c.disk.get(k)
	if !ok || (valid != nil && !valid(v)) {
		return nil, SourceMem, false
	}
	c.spillHits.Add(1)
	c.mem.put(k, v)
	return v, SourceDisk, true
}

// Put stores k→v in memory and writes it through to disk (best-effort).
func (c *Cache) Put(k Key, v []byte) {
	c.mem.put(k, v)
	if c.disk != nil {
		if err := c.disk.put(k, v); err != nil {
			c.spillErr.Add(1)
		} else {
			c.spillWrite.Add(1)
		}
	}
}

// Stats snapshots the cache's counters. The LRU's counters are read
// under its lock and the disk tier's atomically, one by one, so under
// concurrent traffic the totals are approximate.
func (c *Cache) Stats() Stats {
	var st Stats
	st.SpillHits = c.spillHits.Load()
	st.SpillReads = c.spillReads.Load()
	st.SpillWrite = c.spillWrite.Load()
	st.SpillErr = c.spillErr.Load()
	c.mem.stats(&st)
	return st
}
