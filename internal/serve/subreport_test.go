package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Bodies of a plain carat job and of its sub-report variants; the
// sub-report jobs' tables start with the plain job's one table.
const (
	caratBody         = `{"experiment": "carat"}`
	caratMobilityBody = `{"experiment": "carat", "mobility": true}`
	caratBothBody     = `{"experiment": "carat", "mobility": true, "memstats": true}`
)

// subReportDaemon starts a daemon over a disk-backed cache.
func subReportDaemon(t *testing.T, o Options) (*Server, *httptest.Server, *cache.Cache) {
	t.Helper()
	o.Cache = cache.New(cache.Config{Dir: t.TempDir()})
	s := New(o)
	t.Cleanup(func() { shutdown(t, s) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, o.Cache
}

// checkResult fetches a done job's result and requires the bytes of
// the uncached registry run and, when src is not empty, that source.
func checkResult(t *testing.T, ts *httptest.Server, st JobStatus, src string) {
	t.Helper()
	code, body, hdr := getResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("%s: result status %d", st.Config.Experiment, code)
	}
	if !bytes.Equal(body, directRun(t, st.Config)) {
		t.Errorf("%+v: daemon result differs from the uncached run", st.Config)
	}
	if got := hdr.Get("X-Result-Source"); src != "" && got != src {
		t.Errorf("%+v: served by %s, want %s", st.Config, got, src)
	}
}

// TestSubReportJobsShareThePlainTable: a carat job and a carat
// -mobility job, in either order or at once, each serve exactly the
// uncached run's bytes. Run in order, the second job reads the first
// one's carat table from the cache: a plain job after a sub-report job
// is served from memory.
func TestSubReportJobsShareThePlainTable(t *testing.T) {
	for _, order := range [][2]string{{caratBody, caratMobilityBody}, {caratMobilityBody, caratBody}} {
		s, ts, c := subReportDaemon(t, Options{Workers: 1})
		first := runDone(t, s, ts, order[0])
		second := runDone(t, s, ts, order[1])
		// The second job's one hit is the plain form's entry; no
		// result has been fetched yet.
		if st := c.Stats(); st.Hits != 1 || st.SpillWrite != 2 {
			t.Errorf("%s then %s: %d hits and %d disk writes, want 1 and 2",
				order[0], order[1], st.Hits, st.SpillWrite)
		}
		checkResult(t, ts, first, "computed")
		src := "computed"
		if order[1] == caratBody {
			src = "mem"
		}
		checkResult(t, ts, second, src)
	}

	s, ts, _ := subReportDaemon(t, Options{Workers: 2})
	var wg sync.WaitGroup
	sts := make([]JobStatus, 2)
	for i, body := range []string{caratBody, caratMobilityBody} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, st := postJob(t, ts, body)
			if code != http.StatusAccepted {
				t.Errorf("submit %s: status %d", body, code)
			}
			sts[i] = st
		}()
	}
	wg.Wait()
	for _, st := range sts {
		if got, ev := awaitJob(t, s, st.ID).snapshot(); got != StateDone {
			t.Fatalf("%+v: state %s (%s: %s), want done", st.Config, got, ev.Code, ev.Error)
		}
		checkResult(t, ts, st, "")
	}
}

// TestOverlappingJobsComputeThePlainTableOnce: a carat job and a carat
// -mobility job whose runs overlap compute the carat table once between
// them, whichever starts first: their event logs hold one carat cell
// per kernel in total, and each job still serves the uncached run's
// bytes.
func TestOverlappingJobsComputeThePlainTableOnce(t *testing.T) {
	kernels := len(workloads.CARATSuite())
	for _, order := range [][2]string{{caratBody, caratMobilityBody}, {caratMobilityBody, caratBody}} {
		s, ts, c := subReportDaemon(t, Options{Parallel: 1, Workers: 2})
		// With the pool jammed, the first run to need the carat table
		// parks at its first cell. Once both runs have missed a key, the
		// other one is past its own lookup, and the carat table is
		// neither stored nor done for it to find.
		release := jamPool(s)
		var sts []JobStatus
		for _, body := range order {
			code, st := postJob(t, ts, body)
			if code != http.StatusAccepted {
				release()
				t.Fatalf("submit %s: status %d", body, code)
			}
			j, _ := s.Job(st.ID)
			waitRunning(t, j)
			sts = append(sts, st)
		}
		for deadline := time.Now().Add(30 * time.Second); c.Stats().Misses < 2; {
			if time.Now().After(deadline) {
				release()
				t.Fatalf("%s and %s: runs never looked up their keys", order[0], order[1])
			}
			time.Sleep(time.Millisecond)
		}
		release()
		cells := 0
		for _, st := range sts {
			j := awaitJob(t, s, st.ID)
			if got, ev := j.snapshot(); got != StateDone {
				t.Fatalf("%+v: state %s (%s: %s), want done", st.Config, got, ev.Code, ev.Error)
			}
			j.mu.Lock()
			for _, ev := range j.events {
				if ev.Type == "cell" && ev.Driver == "carat" {
					cells++
				}
			}
			j.mu.Unlock()
			checkResult(t, ts, st, "computed")
		}
		if cells != kernels {
			t.Errorf("%s and %s at once: %d carat cells, want %d (one run of the driver)",
				order[0], order[1], cells, kernels)
		}
	}
}

// TestCancelledLeaderLeavesTheWaiterToCompute: a carat job waiting on
// the carat table a carat -mobility job is computing computes the table
// itself when that job is cancelled, and stores it.
func TestCancelledLeaderLeavesTheWaiterToCompute(t *testing.T) {
	s, ts, c := subReportDaemon(t, Options{Parallel: 1, Workers: 2})
	release := jamPool(s)
	submit := func(body string) JobStatus {
		code, st := postJob(t, ts, body)
		if code != http.StatusAccepted {
			release()
			t.Fatalf("submit %s: status %d", body, code)
		}
		j, _ := s.Job(st.ID)
		waitRunning(t, j)
		return st
	}
	lead := submit(caratMobilityBody)
	waiter := submit(caratBody)
	// Give the carat job time to start waiting on the table. Nothing
	// shows here that it has; if it has not, it computes the table
	// without waiting, and every check below holds as well. The core
	// package's TestCancelledLeaderLeavesTheWaiterToLead waits for the
	// join and so exercises the waiting path every time.
	time.Sleep(50 * time.Millisecond)
	s.Cancel(lead.ID)
	release()
	if got, ev := awaitJob(t, s, lead.ID).snapshot(); got != StateCancelled {
		t.Fatalf("carat -mobility: state %s (%s), want cancelled", got, ev.Code)
	}
	if got, ev := awaitJob(t, s, waiter.ID).snapshot(); got != StateDone {
		t.Fatalf("carat: state %s (%s: %s), want done", got, ev.Code, ev.Error)
	}
	checkResult(t, ts, waiter, "computed")
	if _, _, ok := core.LookupTables(c, core.DefaultRunConfig("carat").Key()); !ok {
		t.Error("no carat entry after the waiting job computed the table")
	}
}

// TestCancelledSubReportJobStoresNothing: a sub-report job cancelled
// mid-run writes no entry, under its own key or its plain form's,
// whether it was computing the plain table or reading it from the
// cache; the plain entry a finished job stored stays served.
func TestCancelledSubReportJobStoresNothing(t *testing.T) {
	cancelMidRun := func(t *testing.T, s *Server, ts *httptest.Server, body string) {
		t.Helper()
		release := jamPool(s)
		code, st := postJob(t, ts, body)
		if code != http.StatusAccepted {
			release()
			t.Fatalf("submit %s: status %d", body, code)
		}
		j, _ := s.Job(st.ID)
		waitRunning(t, j)
		s.Cancel(st.ID)
		release()
		if got, ev := awaitJob(t, s, st.ID).snapshot(); got != StateCancelled {
			t.Fatalf("%s: state %s (%s), want cancelled", body, got, ev.Code)
		}
	}
	plainKey := core.DefaultRunConfig("carat").Key()

	// Computing the plain table: the pool is jammed before its first
	// carat cell.
	s, ts, c := subReportDaemon(t, Options{Parallel: 1, Workers: 1})
	cancelMidRun(t, s, ts, caratMobilityBody)
	mob := core.DefaultRunConfig("carat")
	mob.Mobility = true
	for _, k := range []cache.Key{mob.Key(), plainKey} {
		if _, _, ok := core.LookupTables(c, k); ok {
			t.Errorf("entry under %x after a cancelled carat -mobility job", k)
		}
	}
	if st := c.Stats(); st.Puts != 0 || st.SpillWrite != 0 {
		t.Errorf("cancelled job stored %d entries (%d on disk), want 0", st.Puts, st.SpillWrite)
	}

	// Reading it from the cache: carat -mobility -memstats finds the
	// plain table and parks at its first memstats cell.
	s, ts, c = subReportDaemon(t, Options{Parallel: 1, Workers: 1})
	plain := runDone(t, s, ts, caratBody)
	before := c.Stats()
	cancelMidRun(t, s, ts, caratBothBody)
	st := c.Stats()
	both := mob
	both.MemStats = true
	if _, _, ok := core.LookupTables(c, both.Key()); ok {
		t.Error("entry under the cancelled job's key")
	}
	if st.Hits != before.Hits+1 {
		t.Errorf("cancelled job made %d cache hits, want 1 (the plain form's entry)", st.Hits-before.Hits)
	}
	if st.Puts != before.Puts || st.SpillWrite != before.SpillWrite {
		t.Errorf("cancelled job stored entries: puts %d -> %d, disk writes %d -> %d",
			before.Puts, st.Puts, before.SpillWrite, st.SpillWrite)
	}
	checkResult(t, ts, plain, "computed")
}
