// Package serve is the interweaved experiment service: an HTTP/JSON
// front end over the runnable-job registry (internal/core). A job is a
// validated, canonicalized RunConfig; its ID is a prefix of the
// config's content-address key, so the job namespace inherits the
// cache's guarantee — two submissions with the same ID are the same
// experiment, and their results are byte-identical.
//
// The service adds nothing to the result path: jobs run through the
// same core.Runner (shared exp.Pool, shared cache.Cache) the CLI uses,
// concurrent duplicate submissions join one job and one compute, and a
// daemon-served result is byte-identical to the CLI's. A job keeps
// only metadata; its result lives once, in the cache, and GET /result
// reads it from there.
package serve

import (
	"encoding/json"
	"net/http"
)

// Serve-level error codes. Together with the core.ConfigError codes
// (unknown_experiment, cpus_out_of_range, domains_out_of_range,
// bad_chaos_plan) these are API surface: stable, machine-readable,
// added to but never renamed.
const (
	// CodeBadJSON: the request body is not valid JSON for the endpoint's
	// schema (syntax error, wrong type, unknown field, or over the size
	// cap).
	CodeBadJSON = "bad_json"
	// CodeUnknownJob: no job with the requested ID.
	CodeUnknownJob = "unknown_job"
	// CodeQueueFull: admission control rejected the submission; retry
	// after the Retry-After header's delay.
	CodeQueueFull = "queue_full"
	// CodeShuttingDown: the daemon is draining and accepts no new jobs.
	CodeShuttingDown = "shutting_down"
	// CodeJobNotDone: the result was requested before the job reached a
	// terminal state.
	CodeJobNotDone = "job_not_done"
	// CodeJobFailed: the result was requested for a job that failed or
	// was cancelled.
	CodeJobFailed = "job_failed"
	// CodeResultEvicted: the job finished, but its result has since
	// left the cache (HTTP 410). The job is forgotten; resubmit the
	// config to recompute it under the same ID.
	CodeResultEvicted = "result_evicted"
	// CodeCancelled: the job was cancelled by a DELETE or by shutdown.
	CodeCancelled = "cancelled"
	// CodeMethodNotAllowed: the path exists but not for this verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no such route.
	CodeNotFound = "not_found"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// errorBody is the uniform JSON error envelope:
//
//	{"error": {"code": "queue_full", "msg": "..."}}
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// writeError emits the uniform error envelope with the given HTTP
// status and machine-readable code.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{errorDetail{Code: code, Msg: msg}})
}

// writeJSON emits v as the response body with the given status. It is
// the daemon's one JSON writer: strings go out unescaped, so '<', '>'
// and '&' reach clients as themselves on every path.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
