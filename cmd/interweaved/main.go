// Command interweaved is the experiment service daemon: the runnable-job
// registry (internal/core) behind an HTTP/JSON API (internal/serve).
//
// Usage:
//
//	interweaved [flags]
//
// The API (default address :8372):
//
//	POST   /v1/jobs              submit a job (JSON config; 202, or 200
//	                             when deduplicated onto a live/done job)
//	POST   /v1/jobs/batch        submit many; per-item status in order
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  rendered tables, byte-identical to the
//	                             interweave CLI (X-Result-Digest header),
//	                             read from the result cache; 410 once
//	                             evicted (resubmit to recompute)
//	GET    /v1/jobs/{id}/events  NDJSON progress (cells as they complete)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/stats             queue / pool / cache / job counters
//
// A job's ID is a prefix of its config's content-address cache key, so
// duplicate submissions join one compute: a live or finished job with
// that ID absorbs them. A job keeps only metadata; its result lives
// once, in the result cache, and the registry keeps a bounded number
// of finished jobs. A client that does
// not finish its request headers within readHeaderTimeout, or idles on
// a keep-alive connection past idleTimeout, is disconnected.
// SIGINT/SIGTERM drain gracefully: intake stops, queued and running
// jobs finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
)

// Slow-client bounds. There is deliberately no write timeout:
// /v1/jobs/{id}/events streams for a job's whole lifetime.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the daemon's http.Server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	fs := flag.NewFlagSet("interweaved", flag.ExitOnError)
	addr := fs.String("addr", ":8372", "listen address")
	parallel := fs.Int("parallel", 0,
		"max concurrent experiment cells across all jobs (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 4, "max concurrently running jobs")
	queue := fs.Int("queue", 64, "admission queue depth (full = HTTP 429)")
	cacheDir := fs.String("cache-dir", os.Getenv(cache.EnvDir),
		"disk-spill directory for the result cache (default $INTERWEAVE_CACHE_DIR; empty = memory only)")
	memBudget := fs.Int64("mem-budget", 0,
		"result-cache in-memory byte budget (0 = 64 MiB)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute,
		"how long shutdown waits for in-flight jobs before cancelling them")
	_ = fs.Parse(os.Args[1:])

	srv := serve.New(serve.Options{
		Parallel:   *parallel,
		Workers:    *workers,
		QueueDepth: *queue,
		Cache:      cache.New(cache.Config{Dir: *cacheDir, MemBudget: *memBudget}),
	})
	httpSrv := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "interweaved: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "interweaved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// running jobs finish (cancelled only if the drain timeout expires).
	fmt.Fprintln(os.Stderr, "interweaved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "interweaved: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "interweaved: drained")
}
