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
// width, result cache) that deliberately do NOT shape output. RunConfig
// fields are result coordinates; Runner fields are execution knobs, and
// Run hands them to every stack as one Exec.

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

// MaxCPUs bounds RunConfig.CPUs: the full-axis Fig 3 sweep pins its
// 1024-CPU point by table digest (TestDomainModeDigests), and nothing
// above that has a pinned result.
const MaxCPUs = 1024

// MaxDomains bounds RunConfig.Domains (fig3 steal domains; the 1024-CPU
// sweep point uses 32).
const MaxDomains = 256

// RunConfig is the complete, serializable description of one
// experiment invocation: experiment ID plus every knob that shapes its
// output. Its canonical Key is a complete content address for the
// result — two RunConfigs with equal Keys produce byte-identical
// tables — which is why the experiment service uses the Key as the job
// ID. The JSON tags are the service's wire form: optional fields
// marshal away when zero, while cpus and seed are always written
// because their defaults are nonzero (a decoder starts from
// DefaultRunConfig, so an omitted field keeps its default and an
// explicit 0 reaches Validate).
type RunConfig struct {
	// Experiment is the registered experiment ID (see ExperimentIDs).
	Experiment string `json:"experiment"`
	// CPUs parameterizes the CPU-count experiments (nautilus, riscv,
	// tasks, fig6 -epcc). Defaults are applied by DefaultRunConfig, not
	// here: the zero value is invalid.
	CPUs int `json:"cpus"`
	// Seed is the simulation seed every cell derives randomness from.
	Seed uint64 `json:"seed"`
	// ChaosSeed, when nonzero, arms the deterministic fault-injection
	// harness; same seed, same faults, byte-identical output.
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// Chaos overrides the armed fault rates (nil = chaos.DefaultConfig
	// when ChaosSeed is nonzero). Setting it without a ChaosSeed is a
	// validation error: rates without a seed arm nothing.
	Chaos *chaos.Config `json:"chaos,omitempty"`
	// Domains is fig3's steal-domain count (0 = auto).
	Domains int `json:"domains,omitempty"`
	// Optional sub-reports, mirroring the CLI flags of the same names.
	Overheads   bool `json:"overheads,omitempty"`   // fig3: scheduling overheads
	Granularity bool `json:"granularity,omitempty"` // fig4: granularity floors
	Mobility    bool `json:"mobility,omitempty"`    // carat: heap compaction demo
	MemStats    bool `json:"memstats,omitempty"`    // carat: heap allocator statistics
	EPCC        bool `json:"epcc,omitempty"`        // fig6: EPCC sync microbenchmarks
	Sweep       bool `json:"sweep,omitempty"`       // fig3/fig7: scale sweeps
	Ablate      bool `json:"ablate,omitempty"`      // fig7: per-class ablation
	// SmallAxes trims the sweep axes to the classic small-N points
	// (what `interweave all` does: the 256-1024 CPU points take minutes
	// and belong to explicit sweep invocations).
	SmallAxes bool `json:"small_axes,omitempty"`
}

// DefaultRunConfig returns the CLI-default invocation of an
// experiment: 16 CPUs, seed 42, no chaos, no sub-reports.
func DefaultRunConfig(experiment string) RunConfig {
	return RunConfig{Experiment: experiment, CPUs: 16, Seed: 42}
}

// WithAll returns cfg as `interweave all` runs it: every sub-report the
// suite prints turned on and the sweep axes trimmed to the small-N
// points. MemStats is left as cfg has it; `all` does not print it.
func (cfg RunConfig) WithAll() RunConfig {
	cfg.Overheads, cfg.Granularity, cfg.Mobility = true, true, true
	cfg.EPCC, cfg.Sweep, cfg.Ablate, cfg.SmallAxes = true, true, true, true
	return cfg
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
		if err := cfg.Chaos.Validate(); err != nil {
			return &ConfigError{CodeBadChaosPlan, err.Error()}
		}
	}
	return nil
}

// Key canonicalizes the whole invocation: experiment ID plus every
// knob that shapes its output, under the version salt (which already
// covers code-side inputs: cost tables, kernel modules, platform
// models). Pool width is excluded — output is byte-identical at every
// setting, the package's standing guarantee.
func (cfg RunConfig) Key() cache.Key {
	e := cache.NewEnc()
	e.U64("salt", VersionSalt())
	e.Str("experiment-tables", cfg.Experiment)
	e.Int("cpus", cfg.CPUs)
	e.U64("seed", cfg.Seed)
	e.U64("chaos-seed", cfg.ChaosSeed)
	if cfg.ChaosSeed != 0 {
		e.Str("chaos-config", fmt.Sprintf("%+v", chaosRates(cfg.Chaos)))
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
// The zero Runner is valid: default pool width, no cache, a fresh pool
// per driver call.
type Runner struct {
	// Parallel bounds concurrent experiment cells (0 = exp default).
	Parallel int
	// Cache, when non-nil, memoizes whole table sets under
	// RunConfig.Key (see CachedTablesCtx).
	Cache *cache.Cache
	// Pool, when non-nil, is the shared admission-control pool every
	// run's cells go through (see Exec.Pool). Nil builds a fresh pool
	// of width Parallel per driver call, the CLI's behavior; a set Pool
	// makes Parallel unused.
	Pool *exp.Pool
}

// Run regenerates cfg's tables. observe, when non-nil, receives a
// CellEvent as each experiment cell completes (see Exec.Observe).
// The returned source is the tier that served the whole table set
// (computed, mem or disk).
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
	x := Exec{Parallel: r.Parallel, Pool: r.Pool, Ctx: ctx, Observe: observe}
	return CachedTablesCtx(ctx, r.Cache, cfg.Key(), func() []*Table {
		return cfg.generate(x)
	})
}

// generate dispatches to the experiment's drivers — the registry
// proper. Every stack a case builds goes through stack, so the
// execution context and the result coordinates reach every driver.
func (cfg RunConfig) generate(x Exec) []*Table {
	stack := func(s *Stack) *Stack {
		s.Exec = x
		s.Seed, s.ChaosSeed, s.ChaosConfig = cfg.Seed, cfg.ChaosSeed, cfg.Chaos
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
