// Command detvet runs the determinism vet (internal/detvet) over the
// given directories and exits non-zero if any finding survives.
//
// Usage:
//
//	detvet DIR...
//
// With no arguments it vets every package of this repository that
// computes experiment tables, plus the execution, cache and service
// layers those tables pass through (see defaultDirs).
package main

import (
	"fmt"
	"os"

	"repro/internal/detvet"
)

// defaultDirs is the deterministic core: packages whose outputs must be
// reproducible from a seed alone.
var defaultDirs = []string{
	"internal/sim",
	"internal/machine",
	"internal/heartbeat",
	"internal/exp",
	// The interpreter's compiled engine must be reproducible too: the
	// fusion stage and both executors may not depend on map order, the
	// wall clock, or global randomness (bit-identical engines contract).
	"internal/interp",
	// The result cache serves bytes back as experiment output: key
	// construction and both storage tiers may not depend on map order,
	// the wall clock, or global randomness (byte-identical warm runs).
	"internal/cache",
	// The experiment service sits on the result path: everything it
	// serves must be byte-identical to the CLI. Wall-clock reads exist
	// only for event timestamps and carry detvet:ok suppressions; any
	// new one must justify itself the same way.
	"internal/serve",
	// The memory-system simulators behind fig7 and farmem: eviction and
	// invalidation order feed order-sensitive cycle and energy sums.
	"internal/coherence",
	"internal/farmem",
	// The drivers that assemble every table, and the runtimes, kernels,
	// platform models and workloads they compute with.
	"internal/core",
	"internal/nautilus",
	"internal/omp",
	"internal/linux",
	"internal/virtine",
	"internal/pipeline",
	"internal/pik",
	"internal/stats",
	"internal/model",
	"internal/workloads",
	"internal/mem",
	"internal/chaos",
	"internal/carat",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	findings, err := detvet.CheckDirs(dirs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("detvet: %d dir(s) clean\n", len(dirs))
}
