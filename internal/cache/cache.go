package cache

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Source classifies where GetOrComputeCtx found a value: the experiment
// service reports it for every finished job (terminal event and
// X-Result-Source header), so a client can see which tier served it.
type Source uint8

const (
	// SourceComputed: this caller was the flight leader and ran compute.
	SourceComputed Source = iota
	// SourceMem: served from the in-memory LRU.
	SourceMem
	// SourceDisk: served from the disk spill (and promoted to memory).
	SourceDisk
	// SourceCoalesced: served by another caller's in-flight compute.
	SourceCoalesced
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
	case SourceCoalesced:
		return "coalesced"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Config sizes a Cache. The zero Config is usable: 16 shards, 64 MiB
// in-memory budget, no disk spill.
type Config struct {
	// Shards is the in-memory LRU shard count, rounded up to a power of
	// two. 0 means 16.
	Shards int
	// MemBudget is the total in-memory byte budget across all shards.
	// 0 means 64 MiB.
	MemBudget int64
	// Dir is the disk-spill directory. Empty disables spill. The
	// interweave CLI defaults it from $INTERWEAVE_CACHE_DIR.
	Dir string
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits       uint64 // in-memory LRU hits
	Misses     uint64 // in-memory LRU misses
	SpillHits  uint64 // misses served from disk (and promoted)
	SpillReads uint64 // disk lookups attempted after a memory miss
	SpillWrite uint64 // entries written to disk
	SpillErr   uint64 // best-effort disk writes that failed
	Puts       uint64 // new entries admitted to memory
	Evictions  uint64 // entries evicted for byte budget
	Computes   uint64 // leader computes run via GetOrComputeCtx
	Coalesced  uint64 // waiters served by another caller's compute
	BytesInMem int64  // resident value bytes
	Entries    int    // resident entries
}

// String renders the snapshot as the -cache-stats report line set.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cache: %d hits, %d misses (%d served from disk), %d computes, %d coalesced\n"+
			"cache: memory %d entries / %d bytes, %d evictions; disk %d writes, %d write errors",
		s.Hits, s.Misses, s.SpillHits, s.Computes, s.Coalesced,
		s.Entries, s.BytesInMem, s.Evictions, s.SpillWrite, s.SpillErr)
}

// Cache composes the three tiers: sharded LRU over disk spill, with a
// singleflight group coalescing duplicate in-flight computes.
type Cache struct {
	mem    *memLRU
	disk   *diskStore
	flight flightGroup

	spillHits, spillReads, spillWrite, spillErr atomic.Uint64
	computes, coalesced                         atomic.Uint64
}

// New builds a cache from cfg (see Config for zero-value defaults).
func New(cfg Config) *Cache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = 64 << 20
	}
	return &Cache{
		mem:  newMemLRU(shards, budget),
		disk: newDiskStore(cfg.Dir),
	}
}

// Get looks k up in memory, then on disk; a disk hit is promoted into
// memory. The returned bytes are shared — callers must not mutate them.
func (c *Cache) Get(k Key) ([]byte, bool) {
	v, _, ok := c.getSrc(k)
	return v, ok
}

// getSrc is Get with the tier that served the value.
func (c *Cache) getSrc(k Key) ([]byte, Source, bool) {
	if v, ok := c.mem.get(k); ok {
		return v, SourceMem, true
	}
	if c.disk == nil {
		return nil, SourceMem, false
	}
	c.spillReads.Add(1)
	v, ok := c.disk.get(k)
	if !ok {
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

// GetOrComputeCtx returns the cached bytes for k and the tier that
// served them, computing and storing them on a miss. Duplicate
// in-flight keys coalesce: one caller (the leader) runs compute, the
// rest wait for its result.
//
// ctx governs this caller's waiting only, never a running compute: a
// leader whose compute has started runs it to completion and stores
// the result, so cancellation can never leave a partial entry in the
// cache (complete results are cached, abandoned ones simply are not).
// A leader that observes cancellation *before* computing retires the
// flight with ErrLeaderCancelled; waiters whose own context is still
// live then retry the key instead of inheriting the cancellation.
//
// A compute error or panic is never cached; the flight entry is retired
// so the next caller retries. A leader's panic propagates on the
// leader's goroutine only; its waiters receive an error wrapping
// ErrLeaderPanic.
func (c *Cache) GetOrComputeCtx(ctx context.Context, k Key, compute func() ([]byte, error)) ([]byte, Source, error) {
	for {
		if v, src, ok := c.getSrc(k); ok {
			return v, src, nil
		}
		fc, leader := c.flight.join(k)
		if !leader {
			c.coalesced.Add(1)
			v, err := fc.waitCtx(ctx)
			if errors.Is(err, ErrLeaderCancelled) && ctx.Err() == nil {
				continue // the key is untried, not failed; run our own flight
			}
			return v, SourceCoalesced, err
		}
		return c.lead(ctx, k, fc, compute)
	}
}

// lead runs the leader side of one flight: the compute, the store, and
// the flight's retirement (on success, failure, panic, or pre-compute
// cancellation).
func (c *Cache) lead(ctx context.Context, k Key, fc *flightCall, compute func() ([]byte, error)) ([]byte, Source, error) {
	// Between the caller's miss and its join, another leader may have
	// finished and populated the cache; re-check before computing.
	if v, src, ok := c.getSrc(k); ok {
		c.flight.finish(k, fc, v, nil)
		return v, src, nil
	}
	// Cancelled before the compute started: retire the flight without
	// touching the cache.
	if err := ctx.Err(); err != nil {
		c.flight.finish(k, fc, nil, fmt.Errorf("%w: %w", ErrLeaderCancelled, err))
		return nil, SourceComputed, err
	}
	finished := false
	defer func() {
		if !finished { // compute panicked: release waiters, then unwind
			c.flight.finish(k, fc, nil, ErrLeaderPanic)
		}
	}()
	c.computes.Add(1)
	v, err := compute()
	finished = true
	if err == nil {
		c.Put(k, v)
	}
	c.flight.finish(k, fc, v, err)
	return v, SourceComputed, err
}

// Stats snapshots the cache's counters. Taken shard by shard, so under
// concurrent traffic the totals are approximate.
func (c *Cache) Stats() Stats {
	var st Stats
	st.SpillHits = c.spillHits.Load()
	st.SpillReads = c.spillReads.Load()
	st.SpillWrite = c.spillWrite.Load()
	st.SpillErr = c.spillErr.Load()
	st.Computes = c.computes.Load()
	st.Coalesced = c.coalesced.Load()
	c.mem.stats(&st)
	return st
}
