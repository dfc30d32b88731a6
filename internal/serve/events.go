package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleEvents streams a job's progress as NDJSON: every event already
// recorded is replayed from the start, then the stream follows live
// until the job reaches a terminal state (whose event is the last
// line) or the client disconnects. Each line is one Event; lines flush
// individually so a polling client sees cells as they complete.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob,
			fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // headers out before the first event lands
	}

	// A disconnected client must not strand this handler inside
	// cond.Wait: wake the job's waiters when the request context dies.
	// The goroutine exits with the request either way.
	ctx := r.Context()
	go func() {
		<-ctx.Done()
		job.wake()
	}()

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // as writeJSON
	next := 0
	for {
		evs, more := job.eventsFrom(next, ctx.Done())
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		next += len(evs)
		if !more || ctx.Err() != nil {
			return
		}
	}
}
