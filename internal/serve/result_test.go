package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// getStatus fetches a job's status code only.
func getStatus(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runDone submits body, waits for the job and fails t unless it is
// done.
func runDone(t *testing.T, s *Server, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	code, st := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", body, code)
	}
	if got, ev := awaitJob(t, s, st.ID).snapshot(); got != StateDone {
		t.Fatalf("%s: state %s (%s: %s), want done", body, got, ev.Code, ev.Error)
	}
	return st
}

// TestRegistryBounded: with the terminal-job limit lowered, limit+K
// distinct jobs never leave more than limit finished jobs registered,
// and the oldest is forgotten (404) while the newest is kept.
func TestRegistryBounded(t *testing.T) {
	const limit, extra = 3, 2
	s := New(Options{Workers: 1})
	s.store.limit = limit
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for seed := 1; seed <= limit+extra; seed++ {
		st := runDone(t, s, ts, fmt.Sprintf(`{"experiment": "virtine", "seed": %d}`, seed))
		ids = append(ids, st.ID)
		c := s.store.counts()
		if n := c[StateDone] + c[StateFailed] + c[StateCancelled]; n > limit {
			t.Fatalf("after %d jobs: %d terminal jobs registered, limit %d", seed, n, limit)
		}
	}
	if code := getStatus(t, ts, ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest job: status %d, want 404", code)
	}
	if code := getStatus(t, ts, ids[len(ids)-1]); code != http.StatusOK {
		t.Errorf("newest job: status %d, want 200", code)
	}
}

// TestEvictedResultRoundTrip: with a cache that holds one table set,
// finishing B evicts A's result. A's /result then answers 410
// result_evicted and forgets the job, a resubmission of A is a fresh
// 202 job, and its result is byte-identical (body and digest) to the
// first fetch and to the direct run.
func TestEvictedResultRoundTrip(t *testing.T) {
	a := core.DefaultRunConfig("virtine")
	a.Seed = 1
	b := a
	b.Seed = 2
	// Size the budget to the larger of the two encoded table sets.
	probe := cache.New(cache.Config{})
	var budget int64
	for _, cfg := range []core.RunConfig{a, b} {
		before := probe.Stats().BytesInMem
		if _, _, err := (&core.Runner{Cache: probe}).Run(context.Background(), cfg, nil); err != nil {
			t.Fatal(err)
		}
		budget = max(budget, probe.Stats().BytesInMem-before)
	}

	c := cache.New(cache.Config{MemBudget: budget})
	s := New(Options{Workers: 1, Cache: c})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodyA := `{"experiment": "virtine", "seed": 1}`
	stA := runDone(t, s, ts, bodyA)
	code, first, hdr := getResult(t, ts, stA.ID)
	if code != http.StatusOK {
		t.Fatalf("first fetch of A: status %d", code)
	}
	digest := hdr.Get("X-Result-Digest")
	runDone(t, s, ts, `{"experiment": "virtine", "seed": 2}`)

	code, raw, _ := getResult(t, ts, stA.ID)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); code != http.StatusGone || err != nil || eb.Error.Code != CodeResultEvicted {
		t.Fatalf("evicted A: status %d code %q (%v), want 410 %q", code, eb.Error.Code, err, CodeResultEvicted)
	}
	if code := getStatus(t, ts, stA.ID); code != http.StatusNotFound {
		t.Fatalf("A after 410: status %d, want 404 (forgotten)", code)
	}

	stA2 := runDone(t, s, ts, bodyA)
	if stA2.ID != stA.ID {
		t.Fatalf("resubmitted A has ID %s, want %s", stA2.ID, stA.ID)
	}
	code, again, hdr := getResult(t, ts, stA.ID)
	if code != http.StatusOK {
		t.Fatalf("refetch of A: status %d", code)
	}
	if !bytes.Equal(again, first) || hdr.Get("X-Result-Digest") != digest {
		t.Errorf("recomputed A differs: digest %s vs %s", hdr.Get("X-Result-Digest"), digest)
	}
	if want := directRun(t, a); !bytes.Equal(again, want) {
		t.Error("recomputed A differs from direct run")
	}
}

// TestResultReadsCache: a /result on a done job is served by the
// result cache (its hit counter advances), with the digest and source
// recorded when the job finished. A cached set whose fingerprint is
// not the recorded digest is never served: it answers 500 internal.
func TestResultReadsCache(t *testing.T) {
	c := cache.New(cache.Config{})
	s := New(Options{Workers: 1, Cache: c})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := runDone(t, s, ts, `{"experiment": "blending", "seed": 3}`)
	_, done := awaitJob(t, s, st.ID).snapshot()
	hits := c.Stats().Hits
	code, _, hdr := getResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if got := c.Stats().Hits; got != hits+1 {
		t.Errorf("cache hits %d -> %d, want one hit per /result", hits, got)
	}
	if hdr.Get("X-Result-Digest") != done.Digest || hdr.Get("X-Result-Source") != done.Source || done.Source != cache.SourceComputed.String() {
		t.Errorf("headers digest %q source %q, want %q %q",
			hdr.Get("X-Result-Digest"), hdr.Get("X-Result-Source"), done.Digest, done.Source)
	}

	// Store another config's (valid) table set under this job's key.
	other := runDone(t, s, ts, `{"experiment": "pipeline", "seed": 31}`)
	j, _ := s.Job(other.ID)
	buf, _, ok := c.Get(j.key, nil)
	if !ok {
		t.Fatal("other job's result not cached")
	}
	mine, _ := s.Job(st.ID)
	c.Put(mine.key, buf)
	code, raw, _ := getResult(t, ts, st.ID)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); code != http.StatusInternalServerError || err != nil || eb.Error.Code != CodeInternal {
		t.Errorf("mismatched cached set: status %d code %q (%v), want 500 %q", code, eb.Error.Code, err, CodeInternal)
	}
}
