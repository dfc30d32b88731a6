package serve

import "net/http"

// StatsSnapshot is the body of GET /v1/stats: job counts by state, the
// admission queue, the shared cell pool, and (when caching) the result
// cache's counters. The mirrors exist to give the wire stable
// snake_case names independent of the internal struct fields.
type StatsSnapshot struct {
	Jobs     map[State]int   `json:"jobs"`
	Queue    QueueStats      `json:"queue"`
	Pool     PoolStatsWire   `json:"pool"`
	Cache    *CacheStatsWire `json:"cache,omitempty"`
	Draining bool            `json:"draining,omitempty"`
}

// QueueStats describes the admission queue.
type QueueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// PoolStatsWire mirrors exp.PoolStats.
type PoolStatsWire struct {
	Workers int    `json:"workers"`
	Active  int    `json:"active"`
	Cells   uint64 `json:"cells"`
}

// CacheStatsWire mirrors cache.Stats.
type CacheStatsWire struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	SpillHits  uint64 `json:"spill_hits"`
	SpillReads uint64 `json:"spill_reads"`
	SpillWrite uint64 `json:"spill_writes"`
	SpillErr   uint64 `json:"spill_errors"`
	Puts       uint64 `json:"puts"`
	Evictions  uint64 `json:"evictions"`
	Computes   uint64 `json:"computes"`
	Coalesced  uint64 `json:"coalesced"`
	BytesInMem int64  `json:"bytes_in_mem"`
	Entries    int    `json:"entries"`
}

// Stats snapshots the service.
func (s *Server) Stats() StatsSnapshot {
	ps := s.pool.Stats()
	snap := StatsSnapshot{
		Jobs:  s.store.counts(),
		Queue: QueueStats{Depth: len(s.queue), Capacity: s.qcap},
		Pool: PoolStatsWire{
			Workers: ps.Workers, Active: ps.Active, Cells: ps.Cells,
		},
		Draining: s.draining.Load(),
	}
	if c := s.runner.Cache; c != nil {
		cs := c.Stats()
		snap.Cache = &CacheStatsWire{
			Hits: cs.Hits, Misses: cs.Misses,
			SpillHits: cs.SpillHits, SpillReads: cs.SpillReads,
			SpillWrite: cs.SpillWrite, SpillErr: cs.SpillErr,
			Puts: cs.Puts, Evictions: cs.Evictions,
			Computes: cs.Computes, Coalesced: cs.Coalesced,
			BytesInMem: cs.BytesInMem, Entries: cs.Entries,
		}
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
