// Command interweave regenerates every table and figure of "The Case for
// an Interwoven Parallel Hardware/Software Stack" (SCWS/ROSS 2021) from
// the simulated stacks in this repository.
//
// Usage:
//
//	interweave <experiment> [flags]
//	interweave all
//
// Experiments:
//
//	nautilus    E1  §III   kernel primitives and app speedup vs Linux
//	fig3        E2  §IV-B  achieved vs target heartbeat rate (+ -overheads, -sweep)
//	fig4        E4  §IV-C  context switch cost family (+ -granularity)
//	carat       E5  §IV-A  guard overhead naive vs hoisted (+ -mobility)
//	fig6        E6  §V-A   kernel OpenMP relative performance (+ -epcc)
//	fig7        E7  §V-B   selective coherence deactivation (+ -sweep, -ablate)
//	virtine     E8  §IV-D  virtine start-up paths, bespoke contexts, service load
//	pipeline    E9  §V-D   IDT vs pipeline interrupt delivery
//	blending    E10 §V-C   interrupt-driven vs compiler-blended polling
//	farmem      X2  §V-C   sub-page transparent far memory
//	consistency X3  §V-B   selective fence ordering
//	riscv       X4  §V-F   mechanisms on open RISC-V hardware
//	paging      X5  §I/III translation-regime overheads
//	tasks       X6  §IV-C  fine-grain task viability
//
// Independent experiment cells run on a bounded worker pool; -parallel N
// (or $INTERWEAVE_PARALLEL) sets the pool width, 0 meaning GOMAXPROCS.
// Output is byte-identical at every width: every cell derives its
// randomness from the seed (pre-split, index-ordered RNGs), and tables
// print in canonical order.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/passes"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "lint" {
		os.Exit(runLint(os.Args[2:]))
	}
	if cmd == "interp" {
		os.Exit(runInterp(os.Args[2:]))
	}
	if cmd == "cache" {
		os.Exit(runCache(os.Args[2:]))
	}
	// The registry (internal/core) owns experiment dispatch and result
	// addressing; the CLI's job is filling one RunConfig from the flags
	// and printing tables. Result flags bind straight into cfg, whose
	// defaults are the registry's.
	cfg := core.DefaultRunConfig(cmd)
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fs.BoolVar(&cfg.Overheads, "overheads", false, "fig3: also print scheduling overheads")
	fs.BoolVar(&cfg.Granularity, "granularity", false, "fig4: also print granularity floors")
	fs.BoolVar(&cfg.Mobility, "mobility", false, "carat: also print heap compaction demo")
	fs.BoolVar(&cfg.MemStats, "memstats", false, "carat: also print heap allocator statistics")
	fs.BoolVar(&cfg.EPCC, "epcc", false, "fig6: also print EPCC sync microbenchmarks")
	fs.BoolVar(&cfg.Sweep, "sweep", false, "fig7: also print scale/disaggregation sweep")
	fs.BoolVar(&cfg.Ablate, "ablate", false, "fig7: also print per-class ablation")
	fs.IntVar(&cfg.CPUs, "cpus", cfg.CPUs, "CPU count read by tasks, and by fig6 with -epcc")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	fs.Uint64Var(&cfg.ChaosSeed, "chaos-seed", 0,
		"arm the fault-injection harness with this seed (0 = off); same seed replays the same faults")
	fs.IntVar(&cfg.Domains, "domains", 0,
		"fig3: steal domains per run (0 = one machine-wide domain; the -sweep table uses one per 32 CPUs from 256 up)")
	jsonOut := fs.Bool("json", false, "emit tables as JSON instead of aligned text")
	parallel := fs.Int("parallel", 0,
		"max concurrent experiment cells (0 = $INTERWEAVE_PARALLEL or GOMAXPROCS, 1 = sequential)")
	useCache := fs.Bool("cache", false,
		"memoize results in the content-addressed cache (disk spill at -cache-dir); output stays byte-identical")
	cacheDir := fs.String("cache-dir", os.Getenv(cache.EnvDir),
		"disk-spill directory for -cache (default $INTERWEAVE_CACHE_DIR; empty = memory only)")
	cacheStats := fs.Bool("cache-stats", false,
		"with -cache: print a hit/miss/spill report to stderr after the run")
	_ = fs.Parse(os.Args[2:])

	var resultCache *cache.Cache
	if *useCache {
		resultCache = cache.New(cache.Config{Dir: *cacheDir})
	}

	runner := &core.Runner{Parallel: *parallel, Cache: resultCache}
	run := func(cfg core.RunConfig) ([]*core.Table, error) {
		tables, _, err := runner.Run(context.Background(), cfg, nil)
		return tables, err
	}

	// fail reports an experiment failure: an invalid config prints
	// usage and exits 2 (the registry validates what the old dispatch
	// switch rejected inline), everything else exits 1.
	fail := func(err error) {
		var cerr *core.ConfigError
		if errors.As(err, &cerr) {
			fmt.Fprintf(os.Stderr, "%s\n\n", cerr.Msg)
			usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	print := func(tables []*core.Table) {
		for _, t := range tables {
			if *jsonOut {
				fmt.Println(t.JSON())
			} else {
				fmt.Println(t)
			}
		}
	}

	// report prints the cache activity summary — to stderr, so stdout
	// stays byte-identical with and without it.
	report := func() {
		if resultCache != nil && *cacheStats {
			fmt.Fprintln(os.Stderr, resultCache.Stats())
		}
	}

	if cmd == "all" {
		// `all` regenerates everything with every optional table on,
		// trimming the sweep axes to the classic small-N points: the
		// 256–1024 CPU/core points take minutes each and belong to the
		// explicit `fig3 -sweep` / `fig7 -sweep` invocations. The
		// experiments run on an outer pool of width -parallel; the
		// runner has no shared Pool, so each driver call inside them
		// builds its own exp.New(*parallel) for its cells. Tables
		// buffer per experiment and print in canonical order once
		// everything finished.
		all := cfg.WithAll()
		ids := core.ExperimentIDs()
		results, err := exp.Map(exp.New(*parallel), len(ids),
			func(i int) ([]*core.Table, error) {
				c := all
				c.Experiment = ids[i]
				return run(c)
			})
		if err != nil {
			fail(err)
		}
		for _, tables := range results {
			print(tables)
		}
		report()
		return
	}
	tables, err := run(cfg)
	if err != nil {
		fail(err)
	}
	print(tables)
	report()
}

// runCache is the `interweave cache` subcommand: inspect (-stats) or
// purge (-clear) the on-disk spill directory. An entry another build
// stored is recomputed and overwritten in place when its config next
// runs, so -clear reclaims space; correctness never needs it.
func runCache(argv []string) int {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	dir := fs.String("dir", os.Getenv(cache.EnvDir),
		"cache directory (default $INTERWEAVE_CACHE_DIR)")
	clear := fs.Bool("clear", false, "remove every cache entry under -dir")
	stats := fs.Bool("stats", false, "report entry count, bytes, and corrupt entries (default action)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: interweave cache [-dir DIR] [-stats] [-clear]

Inspects or purges the on-disk result cache (see -cache on experiment
commands). -stats validates every entry and reports totals; -clear
removes all entries (only cache files are touched). With no flags,
-stats is implied. The current build's identity is printed; entries
another build stored are misses, recomputed and overwritten on use.`)
	}
	_ = fs.Parse(argv)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "cache: no directory: set $INTERWEAVE_CACHE_DIR or pass -dir")
		return 2
	}
	if !*clear {
		*stats = true
	}
	if *stats {
		st, err := cache.ScanDir(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cache: scanning %s: %v\n", *dir, err)
			return 1
		}
		fmt.Printf("cache: %s: %d entries, %d bytes, %d corrupt\n", *dir, st.Entries, st.Bytes, st.Corrupt)
		fmt.Printf("cache: current build %s\n", core.BuildIdentity())
	}
	if *clear {
		n, err := cache.ClearDir(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cache: clearing %s: %v\n", *dir, err)
			return 1
		}
		fmt.Printf("cache: %s: removed %d entries\n", *dir, n)
	}
	return 0
}

// runLint is the `interweave lint` subcommand: run the static
// memory-safety linter (internal/analysis) over named IR modules.
// Patterns name modules from the registry exactly, or with a `...`
// suffix as a prefix match (`kernels/...`). With no patterns it checks
// everything that ships — the example compiler module and the CARAT
// kernels — all of which must be clean; the seeded `buggy/...` modules
// are reachable only by explicit pattern. -opt adds the
// optimizer-opportunity diagnostics (redundant copies, loop-invariant
// recomputation, partially-dead stores); -O runs the standard
// optimization pipeline first, so `-opt -O` must always be clean (the
// linter and the passes share their analyses). Returns 2 on usage
// errors, 1 when any diagnostic is reported, 0 when clean.
func runLint(argv []string) int {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON, one object per line")
	list := fs.Bool("list", false, "list lintable module names and exit")
	opt := fs.Bool("opt", false, "also report optimizer opportunities (what passes.Optimize would remove)")
	optimize := fs.Bool("O", false, "run the standard optimization pipeline before linting")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: interweave lint [-json] [-list] [-opt] [-O] [pattern ...]

Lints IR modules with the internal/analysis memory-safety checker:
use-before-def, dead stores, use-after-free, double-free, leaks,
unreachable blocks. -opt adds optimizer-opportunity diagnostics
(redundant-copy, loop-invariant-recompute, partially-dead-store) plus
fusible-pair superinstruction opportunities; -O optimizes the module
first, so "-opt -O" reports nothing by construction (fusible pairs,
which no pass removes, are excluded under -O). A pattern is a module
name, or a prefix ending in "..." (e.g. kernels/...). Default
patterns: examples/... kernels/...
Seeded demonstration bugs live under buggy/...`)
	}
	_ = fs.Parse(argv)

	targets := workloads.LintTargets()
	targets = append(targets, workloads.BuggySuite()...)
	if *list {
		for _, t := range targets {
			fmt.Println(t.Name)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"examples/...", "kernels/..."}
	}
	match := func(name string) bool {
		for _, p := range patterns {
			if pre, ok := strings.CutSuffix(p, "..."); ok {
				if strings.HasPrefix(name, pre) {
					return true
				}
			} else if name == p {
				return true
			}
		}
		return false
	}

	checked, total := 0, 0
	for _, t := range targets {
		if !match(t.Name) {
			continue
		}
		checked++
		if *optimize {
			if _, err := passes.Optimize(t.Mod); err != nil {
				fmt.Fprintf(os.Stderr, "lint: optimizing %s: %v\n", t.Name, err)
				return 2
			}
		}
		diags := analysis.Lint(t.Mod, t.Extern)
		if *opt {
			diags = append(diags, analysis.LintOpt(t.Mod)...)
			// Fusible-pair opportunities are engine facts, not pipeline
			// debt: no IR pass removes them, so they are excluded from
			// the `-opt -O` lockstep gate (which must stay silent).
			if !*optimize {
				diags = append(diags, analysis.LintFusible(t.Mod)...)
			}
		}
		total += len(diags)
		for _, d := range diags {
			if *jsonOut {
				buf, err := json.Marshal(struct {
					Target string `json:"target"`
					analysis.Diag
				}{t.Name, d})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
				fmt.Println(string(buf))
			} else {
				fmt.Printf("%s: %s\n", t.Name, d)
			}
		}
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "lint: no modules match %v (try -list)\n", patterns)
		return 2
	}
	if !*jsonOut {
		fmt.Printf("lint: %d module(s), %d diagnostic(s)\n", checked, total)
	}
	if total > 0 {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: interweave <experiment> [flags]

experiments:
  nautilus    §III   kernel primitives and app speedup vs Linux (E1)
  fig3        §IV-B  heartbeat rate, Nautilus vs Linux (E2; -overheads for E3)
  fig4        §IV-C  context switch cost family (E4; -granularity)
  carat       §IV-A  CARAT guard overhead (E5; -mobility, -memstats)
  fig6        §V-A   kernel OpenMP vs Linux OpenMP (E6; -epcc)
  fig7        §V-B   coherence deactivation (E7; -sweep for E11, -ablate)
  virtine     §IV-D  virtine start-up latencies (E8)
  pipeline    §V-D   pipeline interrupt delivery (E9)
  blending    §V-C   blended device polling (E10)
  farmem      §V-C   sub-page transparent far memory (extension)
  consistency §V-B   selective fence ordering (extension)
  riscv       §V-F   interweaving mechanisms on open hardware (extension)
  paging      §I/III translation-regime overheads (motivation)
  tasks       §IV-C  fine-grain task viability by runtime mode
  all                everything above with all sub-reports

tools:
  lint        static memory-safety linter over the IR modules
              (interweave lint -h for details)
  interp      interpreter engine summary per kernel, fused or -nofuse
              (interweave interp -h for details)
  cache       inspect or purge the on-disk result cache
              (interweave cache -h for details)

flags:
  -parallel N  max concurrent experiment cells; 0 (default) uses
               $INTERWEAVE_PARALLEL or GOMAXPROCS, 1 runs sequentially.
               Output is byte-identical at every setting.
  -chaos-seed N  arm the deterministic fault-injection harness
               (internal/chaos): IPI loss/delay and timer jitter on
               every simulated machine. Same seed => same faults =>
               byte-identical output. Only nautilus and fig3 send IPIs
               or arm timers, so only their tables move.
  -cache       memoize results content-addressed by (seed, config,
               code version); warm runs are byte-identical to cold.
               Disk spill at -cache-dir / $INTERWEAVE_CACHE_DIR;
               -cache-stats reports hits/misses/spills on stderr.`)
}
