// Command perfbench is the repository's end-to-end benchmark. It drives
// the public entry points of the simulated stack — core.Runner.Run,
// core.Stack, and serve.New + Handler over loopback HTTP — as one load
// generator process, and reports host time end to end and, in a
// separately traced pass, split by layer.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	suite-cold   the `interweave all` configuration, uncached, width 1
//	serve-mixed  interweaved under a closed loop of 2 clients
//	fig3-wide    Fig 3 heartbeat at 256-1024 simulated CPUs, sharded engine
//
// BENCHMARK.json declares the first two. fig3-wide is run by hand: its
// run-to-run spread on a shared 2-CPU host reaches the regression bound.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Every table the program produces is checked against the reference
// digests in golden.json (recomputed on the default-width path for a
// seed the manifest does not hold); a mismatch counts as a failed
// operation and makes the run incorrect.
//
// -write-golden FILE regenerates the reference manifest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	workload := flag.String("workload", "", "workload: suite-cold, serve-mixed or fig3-wide")
	seed := flag.Uint64("seed", 42, "workload seed: the inputs are a pure function of it")
	seconds := flag.Int("seconds", 40, "measurement budget; a workload's minimum passes always run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a CPU-profiled pass")
	probe := flag.String("setup-probe", "", "run the named workload's set-up, print \"ready\", tear down and exit")
	golden := flag.String("write-golden", "", "regenerate the reference digest manifest into this file and exit")
	flag.Parse()

	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *probe != "" {
		if err := runSetupProbe(*probe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, budget)
	} else {
		res, err = runEndToEnd(w, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workload is one benchmark input set.
type workload struct {
	name string
	// setup builds everything the first operation needs (the version
	// salt, and for serve-mixed a daemon with its cache directory) and
	// returns its teardown; the setup probe times it in fresh processes.
	setup func() (teardown func() error, err error)
	// pass runs the workload once, checking outputs through chk.
	pass func(traced bool) (*pass, error)
	// replay, when set, runs after the traced passes and adds exact
	// simulated counts to the per-layer metrics.
	replay func(counters map[string]float64) error
	chk    *checker
	// minPasses is the fewest untraced passes a run makes, however long
	// they take.
	minPasses int
}

// saltSetup is the set-up of a workload whose first operation needs
// only the cache-key version salt.
func saltSetup() (func() error, error) {
	core.VersionSalt()
	return func() error { return nil }, nil
}

func newWorkload(name string, seed uint64) (*workload, error) {
	chk := newChecker()
	switch name {
	case "suite-cold":
		return suiteCold(seed, chk), nil
	case "serve-mixed":
		return serveMixed(seed, chk), nil
	case "fig3-wide":
		return fig3Wide(seed, chk), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite-cold, serve-mixed or fig3-wide)", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passes runs w's passes until the budget would be exceeded by one more
// pass of the last pass's length; at least min passes run.
func passes(w *workload, budget time.Duration, min int, traced func(i int) bool) ([]*pass, error) {
	start := time.Now()
	var ps []*pass
	var last time.Duration
	for len(ps) < min || time.Since(start)+last <= budget {
		t0 := time.Now()
		p, err := w.pass(traced(len(ps)))
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d (traced=%v): wall %.3fs cpu %.3fs, %d ops, %d failed\n",
			w.name, len(ps)+1, p.traced, p.wall, p.cpu, p.ops, p.failed)
		ps = append(ps, p)
	}
	return ps, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w *workload, budget time.Duration) (*result, error) {
	setup, err := probeSetup(w.name, setupProbes)
	if err != nil {
		return nil, err
	}
	ps, err := passes(w, budget, w.minPasses, func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	wall, cpu := passTimes(ps)
	var retained, computed []float64
	for _, p := range ps {
		retained = append(retained, p.retainedMB)
		computed = append(computed, p.computedMS...)
	}
	if len(computed) == 0 {
		// The workload's one request is the whole pass.
		computed = []float64{wall * 1e3}
	}
	res := newResult(ps)
	res.Metrics = map[string]metric{
		"setup_s":           {setup, "s"},
		"wall_s":            {wall, "s"},
		"cpu_s":             {cpu, "s"},
		"computed_gmean_ms": {stats.GeoMean(computed), "ms"},
		"computed_p90_ms":   {stats.Percentile(computed, 90), "ms"},
		"retained_mb":       {median(retained), "MB"},
	}
	return res, w.verify(res)
}

// runTraced alternates untraced and CPU-profiled passes (at least one
// of each) and reports the per-layer metrics: profile buckets averaged
// over the traced passes, every other counter averaged over the
// untraced ones, and the tracing overhead as the difference of the two
// sides' median wall time.
func runTraced(w *workload, budget time.Duration) (*result, error) {
	ps, err := passes(w, budget, 2, func(i int) bool { return i%2 == 1 })
	if err != nil {
		return nil, err
	}
	var plain, traced []*pass
	for _, p := range ps {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	counters := map[string]float64{}
	for _, p := range plain {
		for k, v := range p.counters {
			counters[k] += v / float64(len(plain))
		}
	}
	for _, p := range traced {
		for k, v := range p.profile {
			counters[k] += v / float64(len(traced))
		}
	}
	counters["trace.overhead_s"] = median(walls(traced)) - median(walls(plain))
	if w.replay != nil {
		if err := w.replay(counters); err != nil {
			return nil, err
		}
	}
	res := newResult(ps)
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{counters[m.name], m.unit}
	}
	return res, w.verify(res)
}

func newResult(ps []*pass) *result {
	res := &result{}
	for _, p := range ps {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	return res
}

// verify resolves every output observation against its reference and
// folds mismatches into the result.
func (w *workload) verify(res *result) error {
	mismatched, err := w.chk.verify()
	if err != nil {
		return err
	}
	res.Failed += mismatched
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return nil
}

func walls(ps []*pass) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.wall)
	}
	return out
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer is every metric --trace 1 reports, on every workload; one a
// workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range layers {
		ms = append(ms, metricDef{l + ".cpu_s", "s"})
	}
	ms = append(ms,
		metricDef{"profile.cpu_s", "s"},
		metricDef{"sim.barrier_cpu_s", "s"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.cell_hits", "count"},
		metricDef{"cache.spill_reads_per_miss", "ratio"},
		metricDef{"serve.queue_wait_p50_ms", "ms"},
		metricDef{"serve.run_p50_ms", "ms"},
		metricDef{"serve.repeat_p50_ms", "ms"},
		metricDef{"serve.dedup_ratio", "ratio"},
		metricDef{"serve.joins", "count"},
		metricDef{"serve.jobs_retained", "count"},
	)
	for _, id := range core.ExperimentIDs() {
		ms = append(ms, metricDef{"core." + id + "_s", "s"})
	}
	return append(ms,
		metricDef{"exp.cells", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"trace.overhead_s", "s"},
	)
}()
