package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json")

// manifestChaosSeed is the one fault-injection seed the manifest pins
// next to the clean run.
const manifestChaosSeed = 9

// manifestEntry pins one experiment of `interweave all` at one seed:
// every table's digest.
type manifestEntry struct {
	Experiment string        `json:"experiment"`
	Seed       uint64        `json:"seed"`
	ChaosSeed  uint64        `json:"chaos_seed"`
	Tables     []tableDigest `json:"tables,omitempty"`
}

type tableDigest struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
}

// allConfig is experiment id as `interweave all` runs it (WithAll, the
// helper the CLI uses) at the given seeds.
func allConfig(id string, seed, chaosSeed uint64) RunConfig {
	cfg := DefaultRunConfig(id)
	cfg.Seed, cfg.ChaosSeed = seed, chaosSeed
	return cfg.WithAll()
}

// digestManifest regenerates the manifest: every experiment of `all`
// at seed 42, clean and under manifestChaosSeed, in canonical order.
func digestManifest(t *testing.T) []byte {
	t.Helper()
	var cfgs []RunConfig
	for _, chaosSeed := range []uint64{0, manifestChaosSeed} {
		for _, id := range ExperimentIDs() {
			cfgs = append(cfgs, allConfig(id, 42, chaosSeed))
		}
	}
	// Experiments run concurrently, each on its own cell pool, as the
	// CLI's `all` does.
	runner := &Runner{}
	entries, err := exp.Map(exp.New(0), len(cfgs), func(i int) (manifestEntry, error) {
		cfg := cfgs[i]
		e := manifestEntry{Experiment: cfg.Experiment, Seed: cfg.Seed, ChaosSeed: cfg.ChaosSeed}
		tables, _, err := runner.Run(context.Background(), cfg, nil)
		if err != nil {
			return e, err
		}
		for _, tab := range tables {
			e.Tables = append(e.Tables, tableDigest{ID: tab.ID, Digest: fmt.Sprintf("%016x", tab.Digest())})
		}
		return e, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestDigestManifest pins behaviour across refactors: the digest of
// every table `interweave all` prints, at seed 42 and at one chaos seed,
// must equal testdata/digests.json byte for byte. A change that means
// to alter results regenerates the file with -update; a change that
// only makes the stack faster must leave it untouched.
func TestDigestManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the whole suite twice")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the plain test run covers it")
	}
	got := digestManifest(t)
	path := filepath.Join("testdata", "digests.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("table digests differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
