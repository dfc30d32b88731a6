package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/exp"
)

// Options sizes a Server. The zero Options is usable: default pool
// width, 4 workers, a 64-deep queue, a memory-only result cache.
type Options struct {
	// Parallel bounds concurrent experiment cells across ALL jobs — the
	// shared exp.Pool every job's cells go through (0 = exp default).
	// This is the daemon's admission control for cells.
	Parallel int
	// Workers is the number of jobs run concurrently (0 = 4). Cells are
	// still bounded by Parallel: workers contend for the shared pool.
	Workers int
	// QueueDepth bounds the admission queue (0 = 64). A submission
	// arriving with the queue full is rejected with 429 + Retry-After,
	// never blocked — backpressure must not tie up HTTP handlers.
	QueueDepth int
	// Cache holds every job's result: whole table sets under their
	// RunConfig key, which GET /result reads. Nil means a memory-only
	// cache.New(cache.Config{}).
	Cache *cache.Cache
}

// Server runs jobs from a bounded queue against one shared
// core.Runner. It is the HTTP-free core of the daemon; Handler wires
// it to routes, and tests drive either layer.
type Server struct {
	runner *core.Runner
	store  *store
	queue  chan *Job
	qcap   int

	// qmu serializes enqueues against the shutdown close: a Submit
	// holding the read side can never send on a channel Shutdown (write
	// side) has already closed.
	qmu       sync.RWMutex
	draining  atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	// now stamps events; tests may fix it before any job is submitted.
	// detvet:ok — a server observes wall-clock time by design; nothing
	// derived from it enters results or cache keys.
	now func() time.Time
}

// New builds a Server and starts its workers. Callers must Shutdown.
func New(o Options) *Server {
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	depth := o.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	c := o.Cache
	if c == nil {
		c = cache.New(cache.Config{})
	}
	s := &Server{
		runner: &core.Runner{Cache: c, Pool: exp.New(o.Parallel)},
		store:  newStore(),
		queue:  make(chan *Job, depth),
		qcap:   depth,
		now:    time.Now, // detvet:ok — event timestamps, not results
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates nothing (the config is already validated by
// DecodeJobConfig); it resolves the job against the registry and the
// queue. Outcomes:
//
//   - an equal submission is live or done: that job is returned
//     (deduplicated = true) — N concurrent clients join one job and
//     one compute;
//   - the daemon is draining: ErrShuttingDown;
//   - the queue is full: ErrQueueFull (HTTP 429 + Retry-After);
//   - otherwise the job is enqueued.
func (s *Server) Submit(cfg core.RunConfig) (*Job, bool, error) {
	if s.draining.Load() {
		return nil, false, ErrShuttingDown
	}
	key := cfg.Key()
	job, fresh := s.store.upsert(JobID(key), func() *Job { return newJob(cfg, key, s.now) })
	if !fresh {
		return job, true, nil
	}
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining.Load() {
		s.finish(job, cancelledEvent)
		return nil, false, ErrShuttingDown
	}
	select {
	case s.queue <- job:
		return job, false, nil
	default:
		// Roll the admission back so a later retry can enqueue: a
		// cancelled job does not shadow its ID (see store.upsert).
		s.finish(job, cancelledEvent)
		return nil, false, ErrQueueFull
	}
}

// Submission failures (mapped to HTTP statuses by the handler).
var (
	ErrQueueFull    = errors.New("serve: admission queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, bool) { return s.store.get(id) }

// Cancel cancels the job with the given ID. Cancellation is a request:
// a queued job dies before running; a running job stops at its next
// cancellation point (cells not yet started). Cells
// already running complete, and a table set with skipped cells is never
// stored, so the cache is never contaminated by a cancelled job.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.store.get(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	return j, true
}

// Shutdown drains the service: no new submissions, queued and running
// jobs finish, workers exit. If ctx expires first, every live job is
// cancelled and Shutdown waits for the workers to observe it. Safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.qmu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.qmu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, j := range s.store.all() {
			j.cancel()
		}
		<-done
		return ctx.Err()
	}
}

// worker pulls jobs until the queue closes at shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.run(job)
	}
}

// run executes one job through the shared Runner, translating the
// registry's outcomes into job states and stable failure codes.
func (s *Server) run(job *Job) {
	if job.ctx.Err() != nil {
		s.finish(job, cancelledEvent)
		return
	}
	job.setRunning(s.now())
	observe := func(ev core.CellEvent) { job.cellEvent(ev, s.now()) }
	tables, src, err := s.runner.Run(job.ctx, job.Config, observe)
	switch {
	case err == nil:
		s.finish(job, Event{Type: string(StateDone),
			Tables: len(tables), Digest: resultDigest(tables), Source: src.String()})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finish(job, cancelledEvent)
	default:
		code := CodeInternal
		if _, isFault := chaos.AsFault(err); isFault {
			code = CodeChaosFault
		} else {
			var cerr *core.ConfigError
			if errors.As(err, &cerr) {
				code = cerr.Code
			}
		}
		s.finish(job, Event{Type: string(StateFailed), Code: code, Error: err.Error()})
	}
}

// cancelledEvent is the terminal event of a cancelled job.
var cancelledEvent = Event{Type: string(StateCancelled), Code: CodeCancelled}

// finish ends job with ev, stamped now. Every terminal transition goes
// through it, and through store.finish, which bounds the registry.
func (s *Server) finish(job *Job, ev Event) {
	ev.Job, ev.Time = job.ID, stamp(s.now())
	s.store.finish(job, ev)
}
