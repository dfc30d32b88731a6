package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// directRun renders cfg through a bare registry Runner — the exact
// bytes the interweave CLI prints for the same invocation (the CLI is
// itself pinned byte-identical to its pre-registry output, so equality
// here is equality with the CLI).
func directRun(t *testing.T, cfg core.RunConfig) []byte {
	t.Helper()
	runner := &core.Runner{}
	tables, _, err := runner.Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("direct run %s: %v", cfg.Experiment, err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		fmt.Fprintln(&buf, tb)
	}
	return buf.Bytes()
}

// postJob submits body to ts and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return resp.StatusCode, st
}

// awaitJob blocks until the job with the given ID reaches a terminal
// state (the in-process done channel — tests in this package need no
// polling loop).
func awaitJob(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	select {
	case <-j.done:
	case <-time.After(10 * time.Minute):
		t.Fatalf("job %s never finished", id)
	}
	return j
}

// getResult fetches a job's rendered result.
func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	return resp.StatusCode, body, resp.Header
}

// shutdown drains s and fails the test on error.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestResultByteIdentity submits every registered experiment through
// the HTTP API (as one batch — exercising per-item submission for
// real) and checks each daemon-served result byte-for-byte against the
// registry run directly: the daemon must add nothing to the result
// path. -short trims the multi-second experiments.
func TestResultByteIdentity(t *testing.T) {
	slow := map[string]bool{"fig3": true, "fig7": true, "farmem": true}
	var ids []string
	for _, id := range core.ExperimentIDs() {
		if testing.Short() && slow[id] {
			continue
		}
		ids = append(ids, id)
	}

	// Expected bytes, computed concurrently while the daemon works.
	want := make(map[string][]byte, len(ids))
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			b := directRun(t, core.DefaultRunConfig(id))
			wmu.Lock()
			want[id] = b
			wmu.Unlock()
		}(id)
	}

	s := New(Options{Workers: len(ids), QueueDepth: len(ids), Cache: cache.New(cache.Config{})})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var batch BatchRequest
	for _, id := range ids {
		batch.Jobs = append(batch.Jobs, json.RawMessage(fmt.Sprintf(`{"experiment": %q}`, id)))
	}
	raw, _ := json.Marshal(batch)
	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	resp.Body.Close()
	if len(br.Items) != len(ids) {
		t.Fatalf("batch returned %d items, want %d", len(br.Items), len(ids))
	}
	for i, item := range br.Items {
		if item.Status != http.StatusAccepted || item.Job == nil {
			t.Fatalf("batch item %d (%s): status %d, job %v", i, ids[i], item.Status, item.Job)
		}
	}
	wg.Wait()

	for i, id := range ids {
		jobID := br.Items[i].Job.ID
		j := awaitJob(t, s, jobID)
		if st, ev := j.snapshot(); st != StateDone {
			t.Errorf("%s: state %s (%s: %s), want done", id, st, ev.Code, ev.Error)
			continue
		}
		code, body, hdr := getResult(t, ts, jobID)
		if code != http.StatusOK {
			t.Errorf("%s: result status %d", id, code)
			continue
		}
		if !bytes.Equal(body, want[id]) {
			t.Errorf("%s: daemon result differs from CLI (%d vs %d bytes)",
				id, len(body), len(want[id]))
		}
		if hdr.Get("X-Result-Digest") == "" {
			t.Errorf("%s: missing X-Result-Digest", id)
		}
	}
}

// TestDuplicateSubmissionsComputeOnce: N concurrent clients submitting
// the same config join one job and one compute — exactly one 202, the
// rest 200 with deduplicated=true, identical result bytes, and the
// cache storing a single table set.
func TestDuplicateSubmissionsComputeOnce(t *testing.T) {
	c := cache.New(cache.Config{})
	s := New(Options{Workers: 4, Cache: c})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	body := `{"experiment": "blending", "seed": 7}`
	statuses := make([]int, n)
	jobs := make([]JobStatus, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], jobs[i] = postJob(t, ts, body)
		}(i)
	}
	wg.Wait()

	var accepted, deduped int
	for i := 0; i < n; i++ {
		switch statuses[i] {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			deduped++
			if !jobs[i].Deduplicated {
				t.Errorf("client %d: 200 without deduplicated flag", i)
			}
		default:
			t.Errorf("client %d: status %d", i, statuses[i])
		}
		if jobs[i].ID != jobs[0].ID {
			t.Errorf("client %d: job ID %s != %s", i, jobs[i].ID, jobs[0].ID)
		}
	}
	if accepted != 1 || deduped != n-1 {
		t.Errorf("accepted %d, deduped %d; want 1 and %d", accepted, deduped, n-1)
	}

	j := awaitJob(t, s, jobs[0].ID)
	if st, _ := j.snapshot(); st != StateDone {
		t.Fatalf("job state %s, want done", st)
	}
	// One compute total: the whole batch cost one run and one put.
	if got := c.Stats().Puts; got != 1 {
		t.Errorf("cache puts = %d, want 1 (duplicates must join one job)", got)
	}
	if counts := s.store.counts(); counts[StateDone] != 1 || len(s.store.all()) != 1 {
		t.Errorf("store counts = %v, want exactly one done job", counts)
	}

	// Every client reads the same bytes.
	_, first, _ := getResult(t, ts, jobs[0].ID)
	if want := directRun(t, jobs[0].Config); !bytes.Equal(first, want) {
		t.Errorf("deduplicated result differs from direct run")
	}
}

// TestSeedInvariantJobsShareOneResult: configs that differ only in a
// field their experiment does not read name one result. carat ignores
// the seed, so carat at seeds 3 and 9 is one job: the second POST is a
// 200 deduplicated answer, and /result serves the seed-9 run's bytes
// under the digest the job recorded. nautilus reads the seed, so the
// same pair of seeds is two jobs and two computes.
func TestSeedInvariantJobsShareOneResult(t *testing.T) {
	c := cache.New(cache.Config{})
	s := New(Options{Workers: 2, Cache: c})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, first := postJob(t, ts, `{"experiment": "carat", "seed": 3}`)
	if code != http.StatusAccepted {
		t.Fatalf("carat seed 3: status %d", code)
	}
	awaitJob(t, s, first.ID)
	code, second := postJob(t, ts, `{"experiment": "carat", "seed": 9}`)
	if code != http.StatusOK || !second.Deduplicated || second.ID != first.ID {
		t.Fatalf("carat seed 9: status %d, deduplicated %v, job %s; want 200, true, %s",
			code, second.Deduplicated, second.ID, first.ID)
	}
	code, body, hdr := getResult(t, ts, second.ID)
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	seed9 := core.DefaultRunConfig("carat")
	seed9.Seed = 9
	if !bytes.Equal(body, directRun(t, seed9)) {
		t.Error("shared carat result differs from the seed-9 run")
	}
	if _, ev := awaitJob(t, s, first.ID).snapshot(); hdr.Get("X-Result-Digest") != ev.Digest {
		t.Errorf("X-Result-Digest %q is not the digest the job recorded", hdr.Get("X-Result-Digest"))
	}

	var ids []string
	for _, seed := range []int{3, 9} {
		code, st := postJob(t, ts, fmt.Sprintf(`{"experiment": "nautilus", "seed": %d}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("nautilus seed %d: status %d", seed, code)
		}
		ids = append(ids, st.ID)
	}
	if ids[0] == ids[1] {
		t.Fatal("nautilus at seeds 3 and 9 share a job, though nautilus reads the seed")
	}
	for _, id := range ids {
		awaitJob(t, s, id)
	}
	if puts := c.Stats().Puts; puts != 3 {
		t.Errorf("cache puts = %d, want 3 (one carat, two nautilus)", puts)
	}
}

// jamPool occupies every slot of the server's shared cell pool, so any
// running job parks deterministically at its first cell. Returns the
// release function.
func jamPool(s *Server) func() {
	n := s.runner.Pool.Workers()
	for i := 0; i < n; i++ {
		s.runner.Pool.Acquire()
	}
	return func() {
		for i := 0; i < n; i++ {
			s.runner.Pool.Release()
		}
	}
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := j.snapshot(); st == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", j.ID)
}

// TestBackpressure429NeverDeadlocks: with a single worker wedged on a
// jammed cell pool and a depth-1 queue, surplus submissions are
// rejected promptly with 429 + Retry-After — and once the jam clears,
// a retry is admitted and everything drains. The rejection path must
// never block an HTTP handler.
func TestBackpressure429NeverDeadlocks(t *testing.T) {
	s := New(Options{Parallel: 1, Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := jamPool(s)
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	// A: picked up by the worker, parks at its first cell.
	code, a := postJob(t, ts, `{"experiment": "virtine", "seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit A: status %d", code)
	}
	ja, _ := s.Job(a.ID)
	waitRunning(t, ja)

	// B: sits in the queue.
	if code, _ := postJob(t, ts, `{"experiment": "virtine", "seed": 2}`); code != http.StatusAccepted {
		t.Fatalf("submit B: status %d", code)
	}

	// C and beyond: queue full — 429, Retry-After, queue_full code, and
	// the handler returns immediately (enforced by the client timeout).
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 3; i++ {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"experiment": "virtine", "seed": 3}`))
		if err != nil {
			t.Fatalf("submit C[%d]: %v", i, err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit C[%d]: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code != CodeQueueFull {
			t.Errorf("429 body code %q err %v, want %q", eb.Error.Code, err, CodeQueueFull)
		}
		resp.Body.Close()
	}

	release()
	released = true

	// The retry loop a well-behaved client runs: C is eventually admitted.
	deadline := time.Now().Add(time.Minute)
	var cID string
	for {
		code, st := postJob(t, ts, `{"experiment": "virtine", "seed": 3}`)
		if code == http.StatusAccepted || code == http.StatusOK {
			cID = st.ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("C never admitted after jam cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range []string{a.ID, cID} {
		j := awaitJob(t, s, id)
		if st, ev := j.snapshot(); st != StateDone {
			t.Errorf("job %s: state %s (%s: %s)", id, st, ev.Code, ev.Error)
		}
	}
}

// TestCancelMidRunReleasesSlotsAndCache: cancelling a running job
// frees its pool slots, and — because cancellation never aborts a
// compute in flight — leaves the cache uncontaminated: resubmitting
// the identical config replaces the cancelled job under the same ID
// and produces the correct result from a clean compute.
func TestCancelMidRunReleasesSlotsAndCache(t *testing.T) {
	c := cache.New(cache.Config{})
	s := New(Options{Parallel: 1, Workers: 1, Cache: c})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := jamPool(s)
	code, st := postJob(t, ts, `{"experiment": "carat", "seed": 9}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	j, _ := s.Job(st.ID)
	waitRunning(t, j)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	release() // the parked cell wakes, sees the dead context, and bails
	awaitJob(t, s, st.ID)
	if got, ev := j.snapshot(); got != StateCancelled || ev.Code != CodeCancelled {
		t.Fatalf("state %s code %s, want cancelled", got, ev.Code)
	}

	// Slots all returned: the pool admits a full complement again.
	release2 := jamPool(s)
	release2()
	if ps := s.runner.Pool.Stats(); ps.Active != 0 {
		t.Fatalf("pool stats after cancel = %+v, want idle", ps)
	}

	// No cell completed, so nothing may have been cached by the
	// cancelled job.
	if cs := c.Stats(); cs.Puts != 0 {
		t.Fatalf("cache has %d entries after cancelled job, want 0", cs.Puts)
	}

	// Resubmit: same ID, fresh job, correct result.
	code2, st2 := postJob(t, ts, `{"experiment": "carat", "seed": 9}`)
	if code2 != http.StatusAccepted {
		t.Fatalf("resubmit: status %d (cancelled job must not shadow its ID)", code2)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmit ID %s != %s", st2.ID, st.ID)
	}
	j2 := awaitJob(t, s, st2.ID)
	if got, ev := j2.snapshot(); got != StateDone {
		t.Fatalf("resubmit state %s (%s: %s), want done", got, ev.Code, ev.Error)
	}
	_, body, _ := getResult(t, ts, st2.ID)
	if want := directRun(t, st2.Config); !bytes.Equal(body, want) {
		t.Error("post-cancel result differs from direct run")
	}
}

// TestResubmitDuringCancelIsFresh: a submission that arrives after a
// DELETE but before the cancelled job has unwound must not join the
// doomed job. It gets a fresh job under the same ID (202), which runs
// to done with the CLI's bytes while the old one ends cancelled.
func TestResubmitDuringCancelIsFresh(t *testing.T) {
	s := New(Options{Parallel: 1, Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := jamPool(s)
	released := false
	defer func() {
		if !released {
			release()
		}
	}()
	body := `{"experiment": "carat", "seed": 9}`
	code, st := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	old, _ := s.Job(st.ID)
	waitRunning(t, old)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	// The old job is still parked at its first cell: not yet cancelled.
	code2, st2 := postJob(t, ts, body)
	if code2 != http.StatusAccepted || st2.Deduplicated || st2.ID != st.ID {
		t.Fatalf("resubmit during cancel: status %d dedup %v id %s, want a fresh 202 under %s",
			code2, st2.Deduplicated, st2.ID, st.ID)
	}
	release()
	released = true

	select {
	case <-old.done:
	case <-time.After(10 * time.Minute):
		t.Fatal("cancelled job never finished")
	}
	if got, _ := old.snapshot(); got != StateCancelled {
		t.Fatalf("old job state %s, want cancelled", got)
	}
	j := awaitJob(t, s, st2.ID)
	if j == old {
		t.Fatal("registry still holds the cancelled job")
	}
	if got, ev := j.snapshot(); got != StateDone {
		t.Fatalf("fresh job state %s (%s: %s), want done", got, ev.Code, ev.Error)
	}
	_, out, _ := getResult(t, ts, st2.ID)
	if want := directRun(t, st2.Config); !bytes.Equal(out, want) {
		t.Error("fresh job's result differs from direct run")
	}
}

// TestGracefulShutdownDrainsAndLeaksNoGoroutines: Shutdown finishes
// queued and running jobs (no cancellations), refuses new submissions
// with 503, and returns the process to its goroutine baseline — the
// workers, streamers, and watchers all exit.
func TestGracefulShutdownDrainsAndLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Options{Workers: 2, Cache: cache.New(cache.Config{})})
	ts := httptest.NewServer(s.Handler())

	var ids []string
	for seed := 1; seed <= 4; seed++ {
		code, st := postJob(t, ts, fmt.Sprintf(`{"experiment": "virtine", "seed": %d}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, code)
		}
		ids = append(ids, st.ID)
	}

	// A client following one job's events while shutdown happens.
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/events")
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	shutdown(t, s)

	// Drained, not cancelled.
	for _, id := range ids {
		j, _ := s.Job(id)
		if st, ev := j.snapshot(); st != StateDone {
			t.Errorf("job %s after drain: %s (%s: %s), want done", id, st, ev.Code, ev.Error)
		}
	}

	// New submissions are refused.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "blending"}`))
	if err != nil {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != CodeShuttingDown {
		t.Errorf("post-shutdown submit: status %d code %q, want 503 %q",
			resp.StatusCode, eb.Error.Code, CodeShuttingDown)
	}

	<-streamDone
	ts.Close()

	// Goroutine count settles back to the baseline (PR 5 pattern: poll
	// with a deadline; the runtime needs a moment to reap).
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestChaosReplayByteIdentical: a chaos-armed job replays exactly —
// two daemons with independent caches finish the same chaos seed with
// identical result bytes and digest. nautilus arms the plan on the
// machines its heartbeat runtimes use.
func TestChaosReplayByteIdentical(t *testing.T) {
	type outcome struct {
		state  State
		digest string
		body   []byte
	}
	runOnce := func(body string) outcome {
		s := New(Options{Workers: 1, Cache: cache.New(cache.Config{})})
		defer shutdown(t, s)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		code, st := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("chaos submit: status %d", code)
		}
		j := awaitJob(t, s, st.ID)
		state, ev := j.snapshot()
		out := outcome{state: state, digest: ev.Digest}
		if state == StateDone {
			_, out.body, _ = getResult(t, ts, st.ID)
		}
		return out
	}

	for _, seed := range []uint64{1, 2, 3} {
		body := fmt.Sprintf(`{"experiment": "nautilus", "chaos_seed": %d}`, seed)
		first := runOnce(body)
		second := runOnce(body)
		if first.state != StateDone || second.state != StateDone {
			t.Fatalf("seed %d: states %s and %s, want done", seed, first.state, second.state)
		}
		if first.digest != second.digest || !bytes.Equal(first.body, second.body) {
			t.Errorf("seed %d: chaos runs differ (digests %s vs %s)", seed, first.digest, second.digest)
		}
	}
}
