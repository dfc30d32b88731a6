// Command benchdiff measures the interpreter's execution engines on the
// CARAT kernel suite and records the results in a JSON file
// (BENCH_interp.json at the repo root).
//
// Modes:
//
//	benchdiff -o BENCH_interp.json        # full run: bench fast + reference, write JSON
//	benchdiff -mem -o BENCH_mem.json      # allocator benches: intrusive Buddy vs
//	                                      # ReferenceBuddy, plus contended magazines vs mutex
//	benchdiff -machine                    # event-engine scaling curve at
//	                                      # 64-1024 simulated CPUs -> BENCH_machine.json
//	benchdiff -cache -o BENCH_cache.json  # result-cache cold/warm/restart legs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/interp"
	"repro/internal/passes"
	"repro/internal/workloads"
)

type entry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type report struct {
	Fast                 map[string]entry `json:"fast"`
	Reference            map[string]entry `json:"reference"`
	Opt                  map[string]entry `json:"opt"`
	Fused                map[string]entry `json:"fused"`
	OptFused             map[string]entry `json:"opt_fused"`
	GeomeanSpeedupVsRef  float64          `json:"geomean_speedup_vs_reference,omitempty"`
	GeomeanSpeedupOpt    float64          `json:"geomean_speedup_opt_vs_fast,omitempty"`
	GeomeanSpeedupFused  float64          `json:"geomean_speedup_fused_vs_fast,omitempty"`
	GeomeanSpeedupOptFus float64          `json:"geomean_speedup_optfused_vs_fast,omitempty"`
	CPU                  string           `json:"cpu,omitempty"`
	Note                 string           `json:"note,omitempty"`
}

// legSpec selects one measured engine configuration of a kernel.
type legSpec struct {
	name      string
	reference bool
	optimize  bool
	fused     bool
}

// interpLegs is the measured matrix: the fast/reference/opt legs pin
// fusion off (it is on by default) so the fused-vs-fast geomean
// compares against an honest unfused baseline.
var interpLegs = []legSpec{
	{name: "fast"},
	{name: "reference", reference: true},
	{name: "opt", optimize: true},
	{name: "fused", fused: true},
	{name: "opt_fused", optimize: true, fused: true},
}

// benchKernel measures every engine leg of one kernel. The legs are
// timed interleaved — each round times every leg once, back to back,
// and a leg's ns/op is its median round — rather than sequentially:
// on a machine with background load or frequency scaling, sequential
// per-leg benchmarks attribute whole slow windows to single legs and
// can invert real orderings. Interleaving keeps every leg's samples in
// the same machine states, and the median (unlike the minimum, which
// may pick each leg's sample from a different frequency state)
// preserves the cross-leg ratios the tracked geomeans are built from.
// Alloc counts are taken from a separate counted window per leg (they
// are deterministic; order statistics are meaningless for them).
func benchKernel(k workloads.IRKernel) (map[string]entry, error) {
	const (
		rounds    = 15
		targetRun = 2 * time.Millisecond
	)
	type state struct {
		call    func() error
		iters   int
		samples []int64 // ns/op, one per round
	}
	sts := make([]*state, len(interpLegs))
	for i, leg := range interpLegs {
		m := k.Build()
		if leg.optimize {
			if _, err := passes.Optimize(m); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", k.Name, leg.name, err)
			}
		}
		ip, err := interp.New(m)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.Name, leg.name, err)
		}
		ip.NoFusion = !leg.fused
		ref := leg.reference
		call := func() error {
			// MaxSteps bounds cumulative steps across Calls, so the
			// counters reset each iteration.
			ip.Stats = interp.Stats{}
			var err error
			if ref {
				_, err = ip.ReferenceCall(k.Entry)
			} else {
				_, err = ip.Call(k.Entry)
			}
			return err
		}
		// First call warms the program cache (Compile); the second,
		// timed alone, calibrates the per-round iteration count.
		if err := call(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.Name, leg.name, err)
		}
		t0 := time.Now()
		if err := call(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.Name, leg.name, err)
		}
		iters := int(targetRun / (time.Since(t0) + 1))
		if iters < 1 {
			iters = 1
		}
		if iters > 8 {
			iters = 8
		}
		sts[i] = &state{call: call, iters: iters}
	}
	for r := 0; r < rounds; r++ {
		for _, s := range sts {
			t0 := time.Now()
			for j := 0; j < s.iters; j++ {
				if err := s.call(); err != nil {
					return nil, fmt.Errorf("%s: %w", k.Name, err)
				}
			}
			s.samples = append(s.samples, time.Since(t0).Nanoseconds()/int64(s.iters))
		}
	}
	out := make(map[string]entry, len(interpLegs))
	for i, leg := range interpLegs {
		allocs, bytes, err := measureAllocs(sts[i].call)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.Name, leg.name, err)
		}
		s := sts[i].samples
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		out[leg.name] = entry{NsPerOp: s[len(s)/2], AllocsPerOp: allocs, BytesPerOp: bytes}
	}
	return out, nil
}

// measureAllocs reports per-call heap allocations the way
// testing.B.ReportAllocs does: a MemStats delta over a counted window.
func measureAllocs(call func() error) (allocs, bytes int64, err error) {
	const n = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := call(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return int64(m1.Mallocs-m0.Mallocs) / n, int64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

// geomean returns the geometric-mean ratio base[k]/meas[k] over the
// kernels present in both maps.
func geomean(base, meas map[string]entry) float64 {
	var sum float64
	n := 0
	for name, b := range base {
		m, ok := meas[name]
		if !ok || b.NsPerOp == 0 || m.NsPerOp == 0 {
			continue
		}
		sum += math.Log(float64(b.NsPerOp) / float64(m.NsPerOp))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func main() {
	out := flag.String("o", "", "output file (default BENCH_interp.json, or BENCH_mem.json with -mem)")
	memMode := flag.Bool("mem", false, "benchmark the memory allocator instead of the interpreter")
	machineMode := flag.Bool("machine", false,
		"benchmark the event engine on Fig 3 at 64-1024 simulated CPUs instead of the interpreter")
	cacheMode := flag.Bool("cache", false,
		"benchmark the content-addressed result cache (cold/warm/restart legs) instead of the interpreter")
	flag.Parse()

	if *memMode {
		if *out == "" {
			*out = "BENCH_mem.json"
		}
		if err := runMem(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}
	if *machineMode {
		if *out == "" {
			*out = "BENCH_machine.json"
		}
		if err := runMachine(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}
	if *cacheMode {
		if *out == "" {
			*out = "BENCH_cache.json"
		}
		if err := runCacheBench(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_interp.json"
	}

	rep := report{
		Fast:      make(map[string]entry),
		Reference: make(map[string]entry),
		Opt:       make(map[string]entry),
		Fused:     make(map[string]entry),
		OptFused:  make(map[string]entry),
		Note:      "ns_per_op are machine-dependent; the tracked claims are the geomeans and fast-path allocs_per_op",
	}
	// Carry the host CPU tag forward from an existing file.
	if prev, err := os.ReadFile(*out); err == nil {
		var old report
		if json.Unmarshal(prev, &old) == nil {
			rep.CPU = old.CPU
		}
	}

	names := make([]string, 0)
	for _, k := range workloads.CARATSuite() {
		names = append(names, k.Name)
		res, err := benchKernel(k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		rep.Fast[k.Name] = res["fast"]
		rep.Reference[k.Name] = res["reference"]
		rep.Opt[k.Name] = res["opt"]
		rep.Fused[k.Name] = res["fused"]
		rep.OptFused[k.Name] = res["opt_fused"]
		fmt.Printf("bench %-14s fast %8d ns/op %2d allocs/op   reference %8d   opt %8d   fused %8d ns/op %2d allocs/op   opt+fused %8d\n",
			k.Name, res["fast"].NsPerOp, res["fast"].AllocsPerOp,
			res["reference"].NsPerOp, res["opt"].NsPerOp,
			res["fused"].NsPerOp, res["fused"].AllocsPerOp, res["opt_fused"].NsPerOp)
	}
	sort.Strings(names)

	rep.GeomeanSpeedupVsRef = round2(geomean(rep.Reference, rep.Fast))
	rep.GeomeanSpeedupOpt = round2(geomean(rep.Fast, rep.Opt))
	rep.GeomeanSpeedupFused = round2(geomean(rep.Fast, rep.Fused))
	rep.GeomeanSpeedupOptFus = round2(geomean(rep.Fast, rep.OptFused))
	fmt.Printf("geomean speedup opt vs fast: %.2fx, fused vs fast: %.2fx, opt+fused vs fast: %.2fx\n",
		rep.GeomeanSpeedupOpt, rep.GeomeanSpeedupFused, rep.GeomeanSpeedupOptFus)
	fmt.Printf("geomean speedup vs reference engine: %.2fx\n", rep.GeomeanSpeedupVsRef)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
