package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// timeField matches the event timestamp value for scrubbing: the only
// nondeterministic byte range in a stream.
var timeField = regexp.MustCompile(`"time":"[^"]*"`)

// scrubTimes replaces every event timestamp so streams compare
// deterministically. Everything else in a stream — event order, cell
// indices, sources, digests — is pinned by the golden byte-for-byte.
func scrubTimes(stream []byte) []byte {
	return timeField.ReplaceAll(stream, []byte(`"time":"SCRUBBED"`))
}

// golden compares got against testdata/<name>, rewriting under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: stream differs from golden\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

// streamEvents runs one job to completion on a sequential server and
// returns its scrubbed NDJSON event stream. Parallel=1 makes cell
// completion order deterministic (index order), so the whole stream is
// reproducible byte-for-byte after timestamp scrubbing.
func streamEvents(t *testing.T, body string) []byte {
	t.Helper()
	s := New(Options{Parallel: 1, Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // the stream ends at the terminal event
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return scrubTimes(raw)
}

// TestEventStreamGoldens pins the NDJSON progress stream for
// representative jobs: the event vocabulary, per-cell lines with
// driver/index/source, and the terminal line with table count and
// result digest (so a digest drift fails here too). Regenerate with
//
//	go test ./internal/serve/ -run TestEventStreamGoldens -update
func TestEventStreamGoldens(t *testing.T) {
	cases := []struct {
		name string
		body string
		// unlike, when set, is a config whose job ID and result digest
		// must both differ from this one's.
		unlike string
	}{
		// carat: cell-structured driver — cells appear in index order.
		{"events_carat.ndjson", `{"experiment": "carat"}`, ""},
		// virtine: a second driver shape (service-load cells).
		{"events_virtine.ndjson", `{"experiment": "virtine"}`, ""},
		// chaos-armed: nautilus runs armed machines, so the chaos config
		// lands in its key, and the job ID and digest differ from the
		// clean run. (carat builds no machine: an armed carat job is
		// the clean one.)
		{"events_nautilus_chaos.ndjson", `{"experiment": "nautilus", "chaos_seed": 5}`,
			`{"experiment": "nautilus"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := streamEvents(t, tc.body)
			golden(t, tc.name, got)
			if tc.unlike == "" {
				return
			}
			a, b := lastEvent(t, got), lastEvent(t, streamEvents(t, tc.unlike))
			if a.Job == b.Job || a.Digest == b.Digest {
				t.Errorf("%s and %s share a job ID or digest: %+v vs %+v", tc.body, tc.unlike, a, b)
			}
		})
	}
}

// lastEvent decodes the final line of an event stream.
func lastEvent(t *testing.T, stream []byte) Event {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
	var ev Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		t.Fatalf("last event: %v\n%s", err, stream)
	}
	return ev
}

// TestEventStreamWellFormed: every line of a stream is one valid Event
// JSON object, the first is queued, the last is terminal, and cell
// events carry driver, index, bound, and source.
func TestEventStreamWellFormed(t *testing.T) {
	raw := streamEvents(t, `{"experiment": "carat", "seed": 99}`)
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("stream has %d lines, want at least queued/running/done", len(lines))
	}
	var types []string
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not a JSON event: %v\n%s", i, err, line)
		}
		types = append(types, ev.Type)
		if ev.Type == "cell" {
			if ev.Driver == "" || ev.Cell == nil || ev.Of == 0 || ev.Source == "" {
				t.Errorf("line %d: incomplete cell event %s", i, line)
			}
		}
	}
	if types[0] != "queued" || types[1] != "running" {
		t.Errorf("stream opens %v, want queued then running", types[:2])
	}
	if last := types[len(types)-1]; last != "done" {
		t.Errorf("stream ends %q, want done", last)
	}
}

// TestEventStreamFollowsLiveJob: a stream opened while the job is
// still parked delivers events as they happen and terminates with the
// job — the streaming path, not the replay path.
func TestEventStreamFollowsLiveJob(t *testing.T) {
	s := New(Options{Parallel: 1, Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := jamPool(s)
	code, st := postJob(t, ts, `{"experiment": "carat", "seed": 77}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	j, _ := s.Job(st.ID)
	waitRunning(t, j)

	// Open the stream while the job is wedged mid-run.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()

	release()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read live stream: %v", err)
	}
	if !strings.Contains(string(raw), `"type":"done"`) {
		t.Fatalf("live stream missing terminal event:\n%s", raw)
	}
	// Identical content to a replay of the finished job.
	replay, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replayRaw, _ := io.ReadAll(replay.Body)
	replay.Body.Close()
	if !bytes.Equal(scrubTimes(raw), scrubTimes(replayRaw)) {
		t.Error("live stream and replay differ")
	}
}

// TestMain gives the -update flag a home.
func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(m.Run())
}
