package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
)

func TestLayerOfFrame(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":            "sim",
		"repro/internal/sim.spinUntil":                 "sim",
		"repro/internal/core.runCells[...].func1":      "core",
		"repro/internal/ir.(*Module).Touch":            "passes",
		"repro/internal/analysis.Solve":                "passes",
		"repro/internal/coherence.(*Cache).Lookup":     "coherence",
		"repro/internal/stats.Mean":                    "",
		"runtime.mallocgc":                             "",
		"main.main":                                    "",
		"repro/internal/serve.(*Server).handleSubmit":  "serve",
		"repro/internal/heartbeat.(*worker).execSlice": "heartbeat",
	} {
		got := ""
		if pkg, ok := internalPkg(fn); ok {
			got, _ = layerOf(pkg)
		}
		if got != want {
			t.Errorf("layer of %s = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileSplit profiles a real experiment and checks that the
// reader finds its samples and that the layer buckets add up.
func TestProfileSplit(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		if _, err := runConfig(core.DefaultRunConfig("paging")); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := prof.split()
	if err != nil {
		t.Fatal(err)
	}
	if ls.totalNS == 0 || len(prof.samples) == 0 {
		t.Fatalf("empty profile: %d samples, %d ns", len(prof.samples), ls.totalNS)
	}
	inLayers := ls.totalNS - ls.cpuNS["runtime"]
	if inLayers == 0 {
		t.Errorf("no samples attributed to a repro/internal layer: %v", ls.cpuNS)
	}
}
