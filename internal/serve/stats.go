package serve

import (
	"net/http"

	"repro/internal/cache"
	"repro/internal/exp"
)

// StatsSnapshot is the body of GET /v1/stats: job counts by state, the
// admission queue, the shared cell pool, and the result cache's
// counters. The pool and cache snapshots carry their own JSON tags.
type StatsSnapshot struct {
	Jobs     map[State]int `json:"jobs"`
	Queue    QueueStats    `json:"queue"`
	Pool     exp.PoolStats `json:"pool"`
	Cache    *cache.Stats  `json:"cache,omitempty"`
	Draining bool          `json:"draining,omitempty"`
}

// QueueStats describes the admission queue.
type QueueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// Stats snapshots the service.
func (s *Server) Stats() StatsSnapshot {
	cs := s.runner.Cache.Stats()
	return StatsSnapshot{
		Jobs:     s.store.counts(),
		Queue:    QueueStats{Depth: len(s.queue), Capacity: s.qcap},
		Pool:     s.runner.Pool.Stats(),
		Cache:    &cs,
		Draining: s.draining.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
