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
//	           tier that served the table set: computed/mem/disk; a
//	           plain job that joined another run's computation of
//	           its table reports that run's source and logged no
//	           cells for it)
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

// Job is one submitted experiment invocation: metadata only. Its
// result lives once, in the result cache under key; GET /result reads
// it from there. All mutable fields are guarded by mu; event appends
// and state changes broadcast on cond so streaming handlers can follow
// along, and done closes at the terminal transition for select-based
// waits.
type Job struct {
	ID     string
	Config core.RunConfig
	key    cache.Key // Config's full content address (ID is its prefix)

	// ctx governs the job's waiting (queue time, unstarted cells) —
	// cancelling it never aborts a running cell, and a partial table
	// set is never cached (see core.CachedTablesCtx).
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	cond  *sync.Cond
	state State
	// events is the progress log. Once the job is terminal its last
	// event holds the outcome status reports: table count, digest and
	// source on success, code and message on failure.
	events []Event
	done   chan struct{}
}

// newJob builds a queued job for cfg, whose Key is key, and records
// its first event.
func newJob(cfg core.RunConfig, key cache.Key, now func() time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:     JobID(key),
		Config: cfg,
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	j.append(Event{Type: "queued", Job: j.ID, Time: stamp(now())})
	return j
}

// stamp renders an event timestamp.
func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// append records ev and wakes streamers.
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

// resultDigest fingerprints a table set: the 16-hex-digit digest a
// done job records and GET /result re-checks (X-Result-Digest).
func resultDigest(tables []*core.Table) string {
	e := cache.NewEnc()
	for i, t := range tables {
		e.U64(fmt.Sprintf("table-%d", i), t.Digest())
	}
	return fmt.Sprintf("%016x", e.Fingerprint())
}

// finish records the terminal event ev (whose Type names the end
// state) and releases every waiter. Nothing follows the terminal
// event, so the log is stored at its exact length rather than with
// append's growth slack. Only store.finish calls it.
func (j *Job) finish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = State(ev.Type)
	evs := make([]Event, len(j.events)+1)
	copy(evs, j.events)
	evs[len(j.events)] = ev
	j.events = evs
	j.cond.Broadcast()
	close(j.done)
}

// snapshot returns the job's state and, once it is terminal, the
// terminal event that holds its outcome (the zero Event before then),
// read consistently under one lock.
func (j *Job) snapshot() (State, Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		return j.state, Event{}
	}
	return j.state, j.events[len(j.events)-1]
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

// maxTerminalJobs bounds how many finished jobs the registry keeps.
// Live jobs are bounded already, by the queue depth plus the workers;
// a finished job is metadata only (its result is in the cache), and
// past this many the oldest finished job is forgotten: its ID answers
// 404 and a resubmission is a fresh job.
const maxTerminalJobs = 1024

// store is the job registry: ID → job, plus the finished jobs in the
// order they finished, oldest first, for the bound.
type store struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	finished []*Job
	limit    int // terminal jobs kept: maxTerminalJobs, lowered by tests
}

func newStore() *store {
	return &store{jobs: make(map[string]*Job), limit: maxTerminalJobs}
}

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

// upsert resolves a submission against the registry under one lock.
// An existing job that is done, or live and not cancelled, is returned
// as-is (deduplication: the submission joins it). A failed or
// cancelled predecessor is replaced by a fresh job built with make,
// and so is one whose cancellation is still unwinding: joining it
// would hand the submission a job that is about to end cancelled. The
// bool reports whether the returned job is new (needs enqueueing).
func (s *store) upsert(id string, make func() *Job) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		st, _ := j.snapshot()
		if st == StateDone || (!st.terminal() && j.ctx.Err() == nil) {
			return j, false
		}
	}
	j := make()
	s.jobs[id] = j
	return j, true
}

// finish is every job's one terminal transition: it records ev on j
// and, if j is still the registered job for its ID, enqueues it among
// the finished and forgets the oldest finished jobs past the limit.
// Both happen under the registry lock, so counts never sees more than
// limit terminal jobs. Entries for jobs replaced or dropped since they
// finished still count toward the limit until they age out.
func (s *store) finish(j *Job, ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finish(ev)
	if s.jobs[j.ID] != j {
		return // replaced while its cancellation unwound
	}
	s.finished = append(s.finished, j)
	for len(s.finished) > s.limit {
		old := s.finished[0]
		s.finished[0] = nil
		s.finished = s.finished[1:]
		if s.jobs[old.ID] == old {
			delete(s.jobs, old.ID)
		}
	}
}

// drop forgets j if it is still the registered job for its ID.
func (s *store) drop(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.ID] == j {
		delete(s.jobs, j.ID)
	}
}

// counts tallies jobs by state.
func (s *store) counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := make(map[State]int, 5)
	for _, j := range s.jobs { // detvet:ok — commutative tally, order-free
		st, _ := j.snapshot()
		c[st]++
	}
	return c
}
