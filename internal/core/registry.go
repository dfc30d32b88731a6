package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/exp"
)

// This file is the runnable-job registry: the experiment dispatch that
// used to live inside the interweave CLI, exported so any front end —
// the CLI, the interweaved HTTP daemon, benchdiff — runs experiments
// through one door. A RunConfig is the complete serializable
// description of an invocation (what to run and every knob that shapes
// its output); a Runner carries the execution-side resources (pool
// width, engine sharding, result cache) that deliberately do NOT shape
// output. The split mirrors the cache-key rule from PR 9: RunConfig
// fields are result coordinates, Runner fields are execution knobs.

// ExperimentOrder is the canonical experiment order (`interweave all`).
var experimentOrder = []string{
	"nautilus", "fig3", "fig4", "carat", "fig6", "fig7",
	"virtine", "pipeline", "blending", "farmem", "consistency",
	"riscv", "paging", "tasks",
}

// ExperimentIDs returns the registered experiment IDs in canonical
// (`interweave all`) order.
func ExperimentIDs() []string {
	ids := make([]string, len(experimentOrder))
	copy(ids, experimentOrder)
	return ids
}

// ValidExperiment reports whether id names a registered experiment.
func ValidExperiment(id string) bool {
	for _, e := range experimentOrder {
		if e == id {
			return true
		}
	}
	return false
}

// MaxCPUs bounds RunConfig.CPUs: the sharded event engine is validated
// to 1024 simulated CPUs (PR 6), and nothing above that has an oracle.
const MaxCPUs = 1024

// MaxDomains bounds RunConfig.Domains (fig3 steal domains / engine
// shards; the 1024-CPU sweep point uses 32).
const MaxDomains = 256

// RunConfig is the complete, serializable description of one
// experiment invocation: experiment ID plus every knob that shapes its
// output. Its canonical Key is a complete content address for the
// result — two RunConfigs with equal Keys produce byte-identical
// tables — which is why the experiment service uses the Key as the job
// ID.
type RunConfig struct {
	// Experiment is the registered experiment ID (see ExperimentIDs).
	Experiment string
	// CPUs parameterizes the CPU-count experiments (nautilus, riscv,
	// tasks, fig6 -epcc). Defaults are applied by DefaultRunConfig, not
	// here: the zero value is invalid.
	CPUs int
	// Seed is the simulation seed every cell derives randomness from.
	Seed uint64
	// ChaosSeed, when nonzero, arms the deterministic fault-injection
	// harness; same seed, same faults, byte-identical output.
	ChaosSeed uint64
	// Chaos overrides the armed fault rates (nil = chaos.DefaultConfig
	// when ChaosSeed is nonzero). Setting it without a ChaosSeed is a
	// validation error: rates without a seed arm nothing.
	Chaos *chaos.Config
	// Domains is fig3's steal-domain count (0 = auto).
	Domains int
	// Optional sub-reports, mirroring the CLI flags of the same names.
	Overheads   bool // fig3: scheduling overheads
	Granularity bool // fig4: granularity floors
	Mobility    bool // carat: heap compaction demo
	MemStats    bool // carat: heap allocator statistics
	EPCC        bool // fig6: EPCC sync microbenchmarks
	Sweep       bool // fig3/fig7: scale sweeps
	Ablate      bool // fig7: per-class ablation
	// SmallAxes trims the sweep axes to the classic small-N points
	// (what `interweave all` does: the 256-1024 CPU points take minutes
	// and belong to explicit sweep invocations).
	SmallAxes bool
}

// DefaultRunConfig returns the CLI-default invocation of an
// experiment: 16 CPUs, seed 42, no chaos, no sub-reports.
func DefaultRunConfig(experiment string) RunConfig {
	return RunConfig{Experiment: experiment, CPUs: 16, Seed: 42}
}

// ConfigError is a RunConfig validation failure with a stable
// machine-readable code — the experiment service returns it verbatim
// in its JSON error bodies, so the codes are API surface: they may be
// added to but never renamed.
type ConfigError struct {
	Code string // e.g. "unknown_experiment"
	Msg  string
}

// Error renders the failure.
func (e *ConfigError) Error() string { return e.Msg }

// Validation codes.
const (
	CodeUnknownExperiment = "unknown_experiment"
	CodeCPUsOutOfRange    = "cpus_out_of_range"
	CodeDomainsOutOfRange = "domains_out_of_range"
	CodeBadChaosPlan      = "bad_chaos_plan"
)

// Validate checks cfg against the registry and the simulated
// machines' validated envelope. A nil error means Run will not reject
// the config (it can still fail by injected chaos fault).
func (cfg RunConfig) Validate() error {
	if !ValidExperiment(cfg.Experiment) {
		return &ConfigError{CodeUnknownExperiment,
			fmt.Sprintf("unknown experiment %q (see ExperimentIDs)", cfg.Experiment)}
	}
	if cfg.CPUs < 1 || cfg.CPUs > MaxCPUs {
		return &ConfigError{CodeCPUsOutOfRange,
			fmt.Sprintf("cpus %d out of range [1, %d]", cfg.CPUs, MaxCPUs)}
	}
	if cfg.Domains < 0 || cfg.Domains > MaxDomains {
		return &ConfigError{CodeDomainsOutOfRange,
			fmt.Sprintf("domains %d out of range [0, %d]", cfg.Domains, MaxDomains)}
	}
	if cfg.Chaos != nil {
		if cfg.ChaosSeed == 0 {
			return &ConfigError{CodeBadChaosPlan,
				"chaos rates given without a nonzero chaos seed; they would arm nothing"}
		}
		c := cfg.Chaos
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"alloc_fail_prob", c.AllocFailProb},
			{"ipi_drop_prob", c.IPIDropProb},
			{"ipi_delay_prob", c.IPIDelayProb},
			{"timer_jitter_prob", c.TimerJitterProb},
			{"wake_delay_prob", c.WakeDelayProb},
		} {
			if p.v < 0 || p.v > 1 {
				return &ConfigError{CodeBadChaosPlan,
					fmt.Sprintf("chaos %s %v outside [0, 1]", p.name, p.v)}
			}
		}
		for _, d := range []struct {
			name string
			v    int64
		}{
			{"ipi_delay_max", c.IPIDelayMax},
			{"timer_jitter_max", c.TimerJitterMax},
			{"wake_delay_max", c.WakeDelayMax},
			{"max_steps", c.MaxSteps},
		} {
			if d.v < 0 {
				return &ConfigError{CodeBadChaosPlan,
					fmt.Sprintf("chaos %s %d negative", d.name, d.v)}
			}
		}
	}
	return nil
}

// chaosConfig returns the fault rates cfg arms.
func (cfg RunConfig) chaosConfig() chaos.Config {
	if cfg.Chaos != nil {
		return *cfg.Chaos
	}
	return chaos.DefaultConfig()
}

// Key canonicalizes the whole invocation: experiment ID plus every
// knob that shapes its output, under the version salt (which already
// covers code-side inputs: cost tables, kernel modules, platform
// models). Pool width and engine sharding are excluded — output is
// byte-identical at every setting, the package's standing guarantee.
func (cfg RunConfig) Key() cache.Key {
	e := cache.NewEnc()
	e.U64("salt", VersionSalt())
	e.Str("experiment-tables", cfg.Experiment)
	e.Int("cpus", cfg.CPUs)
	e.U64("seed", cfg.Seed)
	e.U64("chaos-seed", cfg.ChaosSeed)
	if cfg.ChaosSeed != 0 {
		e.Str("chaos-config", fmt.Sprintf("%+v", cfg.chaosConfig()))
	}
	e.Int("domains", cfg.Domains)
	e.Bool("overheads", cfg.Overheads)
	e.Bool("granularity", cfg.Granularity)
	e.Bool("mobility", cfg.Mobility)
	e.Bool("memstats", cfg.MemStats)
	e.Bool("epcc", cfg.EPCC)
	e.Bool("sweep", cfg.Sweep)
	e.Bool("ablate", cfg.Ablate)
	e.Bool("small-axes", cfg.SmallAxes)
	return e.Sum()
}

// Runner executes RunConfigs against shared execution-side resources.
// The zero Runner is valid: default pool width, sequential engine,
// no cache, a fresh pool per driver call.
type Runner struct {
	// Parallel bounds concurrent experiment cells (0 = exp default).
	Parallel int
	// Shards selects the event engine (see Stack.Shards).
	Shards int
	// Cache, when non-nil, memoizes whole table sets under
	// RunConfig.Key (see CachedTablesCtx).
	Cache *cache.Cache
	// Pool, when non-nil, is the shared admission-control pool every
	// run's cells go through (see Stack.Pool). Nil builds a fresh pool
	// of width Parallel per driver call, the CLI's behavior.
	Pool *exp.Pool
}

// Run regenerates cfg's tables. observe, when non-nil, receives a
// CellEvent as each experiment cell completes (see Stack.Observe).
// The returned source is the tier that served the whole table set
// (computed, mem, disk, or coalesced behind a concurrent duplicate).
//
// Unlike the drivers (which panic on cell failure), Run returns the
// two expected failure classes as errors: an injected chaos fault
// (classify with chaos.AsFault) and cancellation of ctx (classify with
// errors.Is context.Canceled / DeadlineExceeded). Anything else still
// panics — those are bugs, not outcomes.
func (r *Runner) Run(ctx context.Context, cfg RunConfig, observe func(CellEvent)) (tables []*Table, src cache.Source, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		e, ok := rec.(error)
		if !ok {
			panic(rec)
		}
		if _, isFault := chaos.AsFault(e); isFault {
			err = e
			return
		}
		if errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			err = e
			return
		}
		panic(rec)
	}()
	return CachedTablesCtx(ctx, r.Cache, cfg.Key(), func() []*Table {
		return cfg.generate(r, ctx, observe)
	})
}

// generate dispatches to the experiment's drivers — the registry
// proper. Every stack a case builds goes through stack, so seed,
// chaos, pool, context, and observer reach every driver.
func (cfg RunConfig) generate(r *Runner, ctx context.Context, observe func(CellEvent)) []*Table {
	stack := func(s *Stack) *Stack {
		s.Seed = cfg.Seed
		s.Parallel = r.Parallel
		s.ChaosSeed = cfg.ChaosSeed
		s.ChaosConfig = cfg.Chaos
		s.Shards = r.Shards
		s.Pool = r.Pool
		s.Ctx = ctx
		s.Observe = observe
		return s
	}
	var tables []*Table
	emit := func(t *Table) { tables = append(tables, t) }
	switch cfg.Experiment {
	case "nautilus":
		emit(stack(NewStack(cfg.CPUs)).Primitives())
	case "fig3":
		s := stack(NewStack(16))
		f3 := DefaultFig3Config()
		f3.Domains = cfg.Domains
		emit(s.Fig3(f3))
		if cfg.Overheads {
			emit(s.Fig3Overheads(f3))
		}
		if cfg.Sweep {
			if cfg.SmallAxes {
				emit(s.Fig3SweepCounts(20, []int{8, 16, 32, 64, 128}))
			} else {
				emit(s.Fig3Sweep(20))
			}
		}
	case "fig4":
		s := stack(KNLStack(1))
		emit(s.Fig4())
		if cfg.Granularity {
			emit(s.GranularityLimit(0.5))
		}
	case "carat":
		s := stack(NewStack(1))
		emit(s.CARAT())
		if cfg.Mobility {
			emit(s.CARATMobility())
		}
		if cfg.MemStats {
			emit(s.MemStats())
		}
	case "fig6":
		s := stack(KNLStack(1))
		emit(s.Fig6(DefaultFig6Config()))
		if cfg.EPCC {
			emit(s.EPCC(cfg.CPUs))
			emit(s.Schedules(cfg.CPUs))
		}
	case "fig7":
		s := stack(ServerStack())
		emit(s.Fig7())
		if cfg.Sweep {
			if cfg.SmallAxes {
				emit(s.Fig7SweepCores([]int{8, 16, 24, 48}))
			} else {
				emit(s.Fig7Sweep())
			}
		}
		if cfg.Ablate {
			emit(s.AblationSharingClasses())
		}
	case "virtine":
		emit(stack(NewStack(1)).Virtines())
	case "pipeline":
		emit(stack(NewStack(1)).Pipeline())
	case "blending":
		emit(stack(NewStack(1)).Blending())
	case "farmem":
		emit(stack(NewStack(1)).FarMemory())
	case "consistency":
		emit(stack(NewStack(1)).Consistency())
	case "riscv":
		emit(stack(NewStack(cfg.CPUs)).CrossISA())
	case "paging":
		emit(stack(NewStack(1)).Paging())
	case "tasks":
		emit(stack(KNLStack(1)).TaskGranularity(cfg.CPUs))
	default:
		// Validate gates Run; reaching here is a registry bug.
		panic(fmt.Errorf("core: experiment %q validated but not registered", cfg.Experiment))
	}
	return tables
}
