package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// State is a job's lifecycle position. Transitions are linear:
// queued → running → one of {done, failed, cancelled}; a queued job
// may also jump straight to cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether s is an end state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one line of a job's NDJSON progress stream. Types:
//
//	queued     the job was admitted
//	running    a worker picked it up
//	cell       one experiment cell completed (driver, cell i of n;
//	           source is always "computed")
//	done       terminal success (table count, result digest, and the
//	           tier that served the table set: computed/mem/disk/coalesced)
//	failed     terminal failure (error code + message)
//	cancelled  terminal cancellation
//
// Time is wall-clock (RFC3339Nano); golden tests scrub it.
type Event struct {
	Type   string `json:"type"`
	Job    string `json:"job"`
	Time   string `json:"time"`
	Driver string `json:"driver,omitempty"`
	Cell   *int   `json:"cell,omitempty"`
	Of     int    `json:"of,omitempty"`
	Source string `json:"source,omitempty"`
	Tables int    `json:"tables,omitempty"`
	Digest string `json:"digest,omitempty"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Job is one submitted experiment invocation. All mutable fields are
// guarded by mu; event appends and state changes broadcast on cond so
// streaming handlers can follow along, and done closes at the terminal
// transition for select-based waits.
type Job struct {
	ID     string
	Config core.RunConfig

	// ctx governs the job's waiting (queue time, unstarted cells,
	// coalesced parking) — cancelling it never aborts a running cell,
	// and a partial table set is never cached (see internal/cache).
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	state  State
	events []Event
	result []byte // rendered tables, byte-identical to the CLI
	digest string // 16-hex-digit fingerprint over the table digests
	tables int
	source cache.Source
	code   string // terminal failure code
	errMsg string
	done   chan struct{}

	submitted time.Time
}

// newJob builds a queued job and records its first event.
func newJob(cfg core.RunConfig, now func() time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        JobID(cfg),
		Config:    cfg,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		done:      make(chan struct{}),
		submitted: now(),
	}
	j.cond = sync.NewCond(&j.mu)
	j.append(Event{Type: "queued", Job: j.ID, Time: stamp(now())})
	return j
}

// stamp renders an event timestamp.
func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// append records ev and wakes streamers. Callers may hold mu (the
// terminal setters do); append only needs it held once.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
}

func (j *Job) appendLocked(ev Event) {
	j.events = append(j.events, ev)
	j.cond.Broadcast()
}

// setRunning transitions queued → running.
func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.appendLocked(Event{Type: "running", Job: j.ID, Time: stamp(now)})
}

// cellEvent records one completed experiment cell. Cells always
// compute: the table-set tier is the only cache, and the tier that
// served the set is reported on the terminal event.
func (j *Job) cellEvent(ev core.CellEvent, now time.Time) {
	cell := ev.Cell
	j.append(Event{
		Type: "cell", Job: j.ID, Time: stamp(now),
		Driver: ev.Driver, Cell: &cell, Of: ev.Of, Source: cache.SourceComputed.String(),
	})
}

// setDone records terminal success: the rendered result (the exact
// bytes the CLI would print — Table.String() + "\n" per table), its
// digest, and the tier that served the table set.
func (j *Job) setDone(tables []*core.Table, src cache.Source, now time.Time) {
	var buf []byte
	e := cache.NewEnc()
	for i, t := range tables {
		buf = append(buf, t.String()...)
		buf = append(buf, '\n')
		e.U64(fmt.Sprintf("table-%d", i), t.Digest())
	}
	digest := fmt.Sprintf("%016x", e.Fingerprint())

	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.result = buf
	j.digest = digest
	j.tables = len(tables)
	j.source = src
	j.appendLocked(Event{
		Type: "done", Job: j.ID, Time: stamp(now),
		Tables: len(tables), Digest: digest, Source: src.String(),
	})
	close(j.done)
}

// setFailed records terminal failure under a stable code.
func (j *Job) setFailed(code, msg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.code = code
	j.errMsg = msg
	j.appendLocked(Event{Type: "failed", Job: j.ID, Time: stamp(now), Code: code, Error: msg})
	close(j.done)
}

// setCancelled records terminal cancellation.
func (j *Job) setCancelled(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateCancelled
	j.code = CodeCancelled
	j.appendLocked(Event{Type: "cancelled", Job: j.ID, Time: stamp(now), Code: CodeCancelled})
	close(j.done)
}

// snapshot returns the fields a status response needs, consistently.
func (j *Job) snapshot() (state State, tables int, digest string, src cache.Source, code, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.tables, j.digest, j.source, j.code, j.errMsg
}

// eventsFrom returns events[i:] once it is non-empty or the job is
// terminal with nothing new; followers call it in a loop. wake lets a
// caller abandon the wait (client disconnect): waitCh closes when the
// caller should stop waiting.
func (j *Job) eventsFrom(i int, waitDone <-chan struct{}) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if i < len(j.events) {
			evs := make([]Event, len(j.events)-i)
			copy(evs, j.events[i:])
			return evs, true
		}
		if j.state.terminal() {
			return nil, false
		}
		select {
		case <-waitDone:
			return nil, false
		default:
		}
		j.cond.Wait()
	}
}

// wake kicks every cond waiter; streaming handlers arrange a wake when
// their client disconnects.
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// store is the job registry: ID → job, plus state counts for /v1/stats.
type store struct {
	mu   sync.Mutex
	jobs map[string]*Job
}

func newStore() *store { return &store{jobs: make(map[string]*Job)} }

// get returns the job with the given ID.
func (s *store) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// all returns every job (for shutdown cancellation and stats).
func (s *store) all() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs { // detvet:ok — order-free: every job is visited
		jobs = append(jobs, j)
	}
	return jobs
}

// upsert resolves a submission against the registry under one lock:
// an existing job in a live or succeeded state is returned as-is
// (deduplication — the submission coalesces onto it); a failed or
// cancelled predecessor is replaced by a fresh job built with make.
// The bool reports whether the returned job is new (needs enqueueing).
func (s *store) upsert(id string, make func() *Job) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		st, _, _, _, _, _ := j.snapshot()
		if st != StateFailed && st != StateCancelled {
			return j, false
		}
	}
	j := make()
	s.jobs[id] = j
	return j, true
}

// counts tallies jobs by state.
func (s *store) counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := make(map[State]int, 5)
	for _, j := range s.jobs { // detvet:ok — commutative tally, order-free
		st, _, _, _, _, _ := j.snapshot()
		c[st]++
	}
	return c
}
