package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// rawPost POSTs body to ts at path and returns the status and the raw
// response bytes.
func rawPost(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, b
}

// rawGet GETs path from ts and returns the raw response bytes.
func rawGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// field returns the raw bytes of one member of a JSON object.
func field(t *testing.T, obj []byte, name string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, obj)
	}
	raw, ok := m[name]
	if !ok {
		t.Fatalf("no %q member in %s", name, obj)
	}
	return raw
}

// objectKeys returns a JSON object's member names in wire order.
func objectKeys(t *testing.T, obj []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", obj)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestWireBytes pins the daemon's JSON at the byte level: the config a
// job status echoes (on submission and on GET) and the member names,
// in order, of GET /v1/stats. Clients parse these bodies, so a change
// to a Go type that moves a byte here is an API change.
func TestWireBytes(t *testing.T) {
	s := New(Options{Parallel: 1, Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Nothing runs while the pool is jammed; the jobs are cancelled
	// before it is released.
	release := jamPool(s)
	cases := []struct{ submit, echo string }{
		{`{"experiment": "fig3"}`,
			`{"experiment":"fig3","cpus":16,"seed":42}`},
		{`{"small_axes": true, "experiment": "fig7", "ablate": true, "sweep": true}`,
			`{"experiment":"fig7","cpus":16,"seed":42,"sweep":true,"ablate":true,"small_axes":true}`},
		{`{"experiment": "carat", "seed": 7, "mobility": true, "chaos_seed": 3, "chaos": {
			"max_steps": 100000, "wake_delay_prob": 0.5, "alloc_budget": 500,
			"alloc_fail_prob": 0.25, "ipi_drop_prob": 0.1, "timer_jitter_max": 100}}`,
			`{"experiment":"carat","cpus":16,"seed":7,"chaos_seed":3,"chaos":{"alloc_fail_prob":0.25,"alloc_budget":500,"ipi_drop_prob":0.1,"timer_jitter_max":100,"wake_delay_prob":0.5,"max_steps":100000},"mobility":true}`},
	}
	var ids []string
	for _, tc := range cases {
		code, body := rawPost(t, ts, "/v1/jobs", tc.submit)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d: %s", tc.submit, code, body)
		}
		if got := field(t, body, "config"); string(got) != tc.echo {
			t.Errorf("POST echo:\n got %s\nwant %s", got, tc.echo)
		}
		var id string
		if err := json.Unmarshal(field(t, body, "id"), &id); err != nil {
			t.Fatal(err)
		}
		if got := field(t, rawGet(t, ts, "/v1/jobs/"+id), "config"); string(got) != tc.echo {
			t.Errorf("GET echo:\n got %s\nwant %s", got, tc.echo)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		s.Cancel(id)
	}
	release()
	for _, id := range ids {
		awaitJob(t, s, id)
	}

	stats := rawGet(t, ts, "/v1/stats")
	for _, want := range []struct {
		member string
		keys   []string
	}{
		{"", []string{"jobs", "queue", "pool", "cache"}},
		{"queue", []string{"depth", "capacity"}},
		{"pool", []string{"workers", "active", "cells"}},
		{"cache", []string{"hits", "misses", "spill_hits", "spill_reads", "spill_writes",
			"spill_errors", "puts", "evictions", "bytes_in_mem", "entries"}},
	} {
		obj := stats
		if want.member != "" {
			obj = field(t, stats, want.member)
		}
		if got := objectKeys(t, obj); !reflect.DeepEqual(got, want.keys) {
			t.Errorf("stats %q keys %v, want %v", want.member, got, want.keys)
		}
	}
}
