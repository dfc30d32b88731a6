package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestRequestValidation drives every rejection class through the HTTP
// surface and pins the contract a client programs against: the HTTP
// status, the structured JSON error envelope, and the stable
// machine-readable code.
func TestRequestValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantHTTP int
		wantCode string
	}{
		{"json syntax error", "POST", "/v1/jobs", `{"experiment": `,
			http.StatusBadRequest, CodeBadJSON},
		{"wrong field type", "POST", "/v1/jobs", `{"experiment": "fig3", "cpus": "many"}`,
			http.StatusBadRequest, CodeBadJSON},
		{"unknown field", "POST", "/v1/jobs", `{"experiment": "fig3", "cpu_count": 4}`,
			http.StatusBadRequest, CodeBadJSON},
		{"trailing document", "POST", "/v1/jobs", `{"experiment": "fig3"} {"experiment": "fig4"}`,
			http.StatusBadRequest, CodeBadJSON},
		{"empty body", "POST", "/v1/jobs", ``,
			http.StatusBadRequest, CodeBadJSON},
		{"unknown experiment", "POST", "/v1/jobs", `{"experiment": "fig99"}`,
			http.StatusBadRequest, core.CodeUnknownExperiment},
		{"missing experiment", "POST", "/v1/jobs", `{"seed": 1}`,
			http.StatusBadRequest, core.CodeUnknownExperiment},
		{"cpus zero", "POST", "/v1/jobs", `{"experiment": "nautilus", "cpus": 0}`,
			http.StatusBadRequest, core.CodeCPUsOutOfRange},
		{"cpus above envelope", "POST", "/v1/jobs", `{"experiment": "nautilus", "cpus": 1025}`,
			http.StatusBadRequest, core.CodeCPUsOutOfRange},
		{"cpus negative", "POST", "/v1/jobs", `{"experiment": "nautilus", "cpus": -4}`,
			http.StatusBadRequest, core.CodeCPUsOutOfRange},
		{"domains negative", "POST", "/v1/jobs", `{"experiment": "fig3", "domains": -1}`,
			http.StatusBadRequest, core.CodeDomainsOutOfRange},
		{"domains above envelope", "POST", "/v1/jobs", `{"experiment": "fig3", "domains": 257}`,
			http.StatusBadRequest, core.CodeDomainsOutOfRange},
		{"chaos rates without seed", "POST", "/v1/jobs",
			`{"experiment": "fig3", "chaos": {"ipi_drop_prob": 0.5}}`,
			http.StatusBadRequest, core.CodeBadChaosPlan},
		{"chaos prob above one", "POST", "/v1/jobs",
			`{"experiment": "fig3", "chaos_seed": 1, "chaos": {"ipi_drop_prob": 1.5}}`,
			http.StatusBadRequest, core.CodeBadChaosPlan},
		{"chaos prob negative", "POST", "/v1/jobs",
			`{"experiment": "fig3", "chaos_seed": 1, "chaos": {"alloc_fail_prob": -0.1}}`,
			http.StatusBadRequest, core.CodeBadChaosPlan},
		{"chaos delay negative", "POST", "/v1/jobs",
			`{"experiment": "fig3", "chaos_seed": 1, "chaos": {"ipi_delay_max": -1}}`,
			http.StatusBadRequest, core.CodeBadChaosPlan},
		{"unknown job status", "GET", "/v1/jobs/deadbeefdeadbeef", "",
			http.StatusNotFound, CodeUnknownJob},
		{"unknown job result", "GET", "/v1/jobs/deadbeefdeadbeef/result", "",
			http.StatusNotFound, CodeUnknownJob},
		{"unknown job events", "GET", "/v1/jobs/deadbeefdeadbeef/events", "",
			http.StatusNotFound, CodeUnknownJob},
		{"unknown job cancel", "DELETE", "/v1/jobs/deadbeefdeadbeef", "",
			http.StatusNotFound, CodeUnknownJob},
		{"wrong verb on jobs", "GET", "/v1/jobs", "",
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"wrong verb on stats", "DELETE", "/v1/stats", "",
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"unknown route", "GET", "/v2/everything", "",
			http.StatusNotFound, CodeNotFound},
		{"bad batch body", "POST", "/v1/jobs/batch", `{"jobs": "all"}`,
			http.StatusBadRequest, CodeBadJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantHTTP {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantHTTP)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not the JSON envelope: %v", err)
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (msg: %s)", eb.Error.Code, tc.wantCode, eb.Error.Msg)
			}
			if eb.Error.Msg == "" {
				t.Error("empty error msg")
			}
		})
	}
}

// TestResultBeforeDone: asking for the result of a live job is a 409
// with job_not_done, not a hang or an empty 200.
func TestResultBeforeDone(t *testing.T) {
	s := New(Options{Parallel: 1, Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := jamPool(s)
	defer release()
	code, st := postJob(t, ts, `{"experiment": "carat", "seed": 11}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	rcode, _, _ := getResult(t, ts, st.ID)
	if rcode != http.StatusConflict {
		t.Fatalf("result while running: status %d, want 409", rcode)
	}
	resp, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if eb.Error.Code != CodeJobNotDone {
		t.Fatalf("code %q, want %q", eb.Error.Code, CodeJobNotDone)
	}
}

// TestBatchPerItemErrors: a batch mixing valid and invalid configs
// reports each item's own outcome in request order — one bad item
// neither fails the envelope nor its siblings. That holds for items
// malformed at the JSON level too (a wrong type, an unknown field, not
// an object): each decodes on its own, to its own 400 bad_json.
func TestBatchPerItemErrors(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"jobs": [
		{"experiment": "blending", "seed": 21},
		{"experiment": "fig99"},
		{"experiment": "consistency", "seed": 21},
		{"experiment": "nautilus", "cpus": 4096},
		{"experiment": "fig4", "cpus": "many"},
		{"experiment": "fig4", "cpu_count": 4},
		7
	]}`
	resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch envelope status %d, want 200", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusAccepted, http.StatusBadRequest,
		http.StatusAccepted, http.StatusBadRequest,
		http.StatusBadRequest, http.StatusBadRequest, http.StatusBadRequest}
	wantCode := []string{"", core.CodeUnknownExperiment, "", core.CodeCPUsOutOfRange,
		CodeBadJSON, CodeBadJSON, CodeBadJSON}
	if len(br.Items) != len(wantStatus) {
		t.Fatalf("%d items, want %d", len(br.Items), len(wantStatus))
	}
	for i, item := range br.Items {
		if item.Status != wantStatus[i] {
			t.Errorf("item %d: status %d, want %d", i, item.Status, wantStatus[i])
		}
		if wantCode[i] == "" {
			if item.Job == nil || item.Error != nil {
				t.Errorf("item %d: want job, got error %+v", i, item.Error)
			}
		} else {
			if item.Error == nil || item.Error.Code != wantCode[i] {
				t.Errorf("item %d: want code %q, got %+v", i, wantCode[i], item.Error)
			}
			if item.Job != nil {
				t.Errorf("item %d: error item carries a job", i)
			}
		}
	}
	// The good items really ran.
	for _, i := range []int{0, 2} {
		j := awaitJob(t, s, br.Items[i].Job.ID)
		if st, _ := j.snapshot(); st != StateDone {
			t.Errorf("item %d: state %s, want done", i, st)
		}
	}
}

// TestStatsEndpoint: the counters a deployment monitors exist and
// move: job counts by state, queue capacity, pool width, cache
// counters.
func TestStatsEndpoint(t *testing.T) {
	s := New(Options{Parallel: 2, Workers: 2, QueueDepth: 7,
		Cache: cache.New(cache.Config{})})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st := postJob(t, ts, `{"experiment": "pipeline", "seed": 31}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	awaitJob(t, s, st.ID)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Jobs[StateDone] != 1 {
		t.Errorf("jobs done = %d, want 1", snap.Jobs[StateDone])
	}
	if snap.Queue.Capacity != 7 {
		t.Errorf("queue capacity = %d, want 7", snap.Queue.Capacity)
	}
	if snap.Pool.Workers != 2 {
		t.Errorf("pool workers = %d, want 2", snap.Pool.Workers)
	}
	if snap.Cache == nil {
		t.Fatal("no cache stats")
	}
	if snap.Cache.Puts != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache puts %d misses %d after one completed job, want 1 and 1",
			snap.Cache.Puts, snap.Cache.Misses)
	}
}
