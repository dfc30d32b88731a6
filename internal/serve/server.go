package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
)

// JobStatus is the JSON body of POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string         `json:"id"`
	State  State          `json:"state"`
	Config core.RunConfig `json:"config"`
	// Deduplicated is set on submission responses when the submission
	// joined an already-live or already-done job.
	Deduplicated bool `json:"deduplicated,omitempty"`
	// Terminal-success fields.
	Tables int    `json:"tables,omitempty"`
	Digest string `json:"digest,omitempty"`
	Source string `json:"source,omitempty"`
	// Terminal-failure fields.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// status renders a job's current status body.
func status(j *Job, dedup bool) JobStatus {
	st, ev := j.snapshot()
	out := JobStatus{
		ID:           j.ID,
		State:        st,
		Config:       j.Config,
		Deduplicated: dedup,
		Code:         ev.Code,
		Error:        ev.Error,
	}
	if st == StateDone {
		out.Tables = ev.Tables
		out.Digest = ev.Digest
		out.Source = ev.Source
	}
	return out
}

// Handler returns the service's HTTP routes:
//
//	POST   /v1/jobs           submit one job
//	POST   /v1/jobs/batch     submit many (per-item results)
//	GET    /v1/jobs/{id}      job status
//	GET    /v1/jobs/{id}/result  rendered tables (text; X-Result-Digest),
//	                             read from the result cache (410 once evicted)
//	GET    /v1/jobs/{id}/events  NDJSON progress stream
//	DELETE /v1/jobs/{id}      cancel
//	GET    /v1/stats          queue/pool/cache/job counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return maxBytes(muxErrorsAsJSON(mux))
}

// maxBytes caps request bodies before any handler reads them.
func maxBytes(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// muxErrorsAsJSON rewrites ServeMux's own plain-text 404 (no route)
// and 405 (path matches under a different verb) into the service's
// JSON error envelope. The service's handlers are left alone: they
// always set application/json before writing, which is the tell.
func muxErrorsAsJSON(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&muxErrWriter{ResponseWriter: w, method: r.Method, path: r.URL.Path}, r)
	})
}

type muxErrWriter struct {
	http.ResponseWriter
	method, path string
	rewrote      bool
}

func (w *muxErrWriter) WriteHeader(code int) {
	fromMux := w.Header().Get("Content-Type") != "application/json"
	if fromMux && code == http.StatusMethodNotAllowed {
		w.rewrote = true
		w.Header().Del("Content-Type")
		writeError(w.ResponseWriter, code, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s", w.method, w.path))
		return
	}
	if fromMux && code == http.StatusNotFound {
		w.rewrote = true
		w.Header().Del("Content-Type")
		w.Header().Del("X-Content-Type-Options")
		writeError(w.ResponseWriter, code, CodeNotFound,
			fmt.Sprintf("no route %s %s", w.method, w.path))
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *muxErrWriter) Write(b []byte) (int, error) {
	if w.rewrote {
		return len(b), nil // swallow the mux's plain-text body
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer: the event stream depends on
// per-line flushes reaching the socket through this wrapper.
func (w *muxErrWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// submitOne resolves one decoded config through Submit, mapping the
// outcomes to (status code, body) for both the single and batch paths.
func (s *Server) submitOne(cfg core.RunConfig) (int, any) {
	job, dedup, err := s.Submit(cfg)
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, errorBody{errorDetail{
			Code: CodeQueueFull,
			Msg:  fmt.Sprintf("admission queue full (%d deep); retry later", s.qcap)}}
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, errorBody{errorDetail{
			Code: CodeShuttingDown, Msg: "daemon is draining; no new jobs"}}
	case err != nil:
		return http.StatusInternalServerError, errorBody{errorDetail{
			Code: CodeInternal, Msg: err.Error()}}
	case dedup:
		return http.StatusOK, status(job, true)
	default:
		return http.StatusAccepted, status(job, false)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cfg, err := DecodeJobConfig(r.Body)
	if err != nil {
		var cerr *core.ConfigError
		errors.As(err, &cerr)
		writeError(w, http.StatusBadRequest, cerr.Code, cerr.Msg)
		return
	}
	code, body := s.submitOne(cfg)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, body)
}

// BatchRequest is the body of POST /v1/jobs/batch: raw configs so each
// item decodes — and fails — independently.
type BatchRequest struct {
	Jobs []json.RawMessage `json:"jobs"`
}

// BatchItem is one per-item outcome: exactly one of Job or Error set.
type BatchItem struct {
	Status int          `json:"status"` // the item's would-be HTTP status
	Job    *JobStatus   `json:"job,omitempty"`
	Error  *errorDetail `json:"error,omitempty"`
}

// BatchResponse mirrors the request order item by item.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON,
			fmt.Sprintf("bad batch request: %v", err))
		return
	}
	resp := BatchResponse{Items: make([]BatchItem, 0, len(req.Jobs))}
	for _, raw := range req.Jobs {
		cfg, err := DecodeJobConfig(bytes.NewReader(raw))
		if err != nil {
			var cerr *core.ConfigError
			errors.As(err, &cerr)
			resp.Items = append(resp.Items, BatchItem{
				Status: http.StatusBadRequest,
				Error:  &errorDetail{Code: cerr.Code, Msg: cerr.Msg},
			})
			continue
		}
		code, body := s.submitOne(cfg)
		item := BatchItem{Status: code}
		switch b := body.(type) {
		case JobStatus:
			item.Job = &b
		case errorBody:
			e := b.Error
			item.Error = &e
		}
		resp.Items = append(resp.Items, item)
	}
	// The envelope succeeds even when items fail: per-item status is
	// the contract, so one bad config cannot mask its siblings.
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob,
			fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, status(job, false))
}

// handleResult serves a done job's tables from the result cache, the
// one place results live. The set is rendered as the CLI prints it and
// served only if its fingerprint equals the digest recorded when the
// job finished. A set that has left the cache answers 410 and the job
// is forgotten, so resubmitting the config queues a fresh job (through
// admission and dedup); no handler ever runs a simulation.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob,
			fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	st, ev := job.snapshot()
	switch {
	case st == StateDone:
		tables, _, ok := core.LookupTables(s.runner.Cache, job.key)
		if !ok {
			s.store.drop(job)
			writeError(w, http.StatusGone, CodeResultEvicted,
				fmt.Sprintf("job %s: result evicted from the cache; resubmit the config to recompute it", job.ID))
			return
		}
		if got := resultDigest(tables); got != ev.Digest {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("job %s: cached result digest %s, recorded %s", job.ID, got, ev.Digest))
			return
		}
		var body strings.Builder
		for _, t := range tables {
			body.WriteString(t.String())
			body.WriteByte('\n')
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Result-Digest", ev.Digest)
		w.Header().Set("X-Result-Source", ev.Source)
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, body.String())
	case st.terminal():
		writeError(w, http.StatusConflict, CodeJobFailed,
			fmt.Sprintf("job %s %s (%s): %s", job.ID, st, ev.Code, ev.Error))
	default:
		writeError(w, http.StatusConflict, CodeJobNotDone,
			fmt.Sprintf("job %s is %s; poll status or follow events", job.ID, st))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob,
			fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusAccepted, status(job, false))
}
