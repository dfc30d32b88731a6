package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/exp"
)

// This file is the runnable-job registry: the experiment dispatch that
// used to live inside the interweave CLI, exported so any front end —
// the CLI, the interweaved HTTP daemon, perfbench — runs experiments
// through one door. A RunConfig is the complete serializable
// description of an invocation (what to run and every knob that shapes
// its output); a Runner carries the execution-side resources (pool
// width, result cache) that deliberately do NOT shape output. RunConfig
// fields are result coordinates; Runner fields are execution knobs, and
// Run hands them to every stack as one Exec.

// field names one RunConfig field that can shape an experiment's
// tables. Experiment itself is not a field: every key holds it.
type field uint16

const (
	fieldCPUs field = 1 << iota
	fieldSeed
	fieldChaos // ChaosSeed and Chaos: they arm a plan only together
	fieldDomains
	fieldOverheads
	fieldGranularity
	fieldMobility
	fieldMemStats
	fieldEPCC
	fieldSweep
	fieldAblate
	fieldSmallAxes
)

// experiments is the registry's table, in canonical (`interweave all`)
// order. Each entry declares the RunConfig fields the experiment's
// generate case and drivers read, its result coordinates: reads always,
// plus also while the sub-report flag when is on. A field is declared
// when the code hands it to something that can move a table byte, not
// when it was seen to do so; TestUndeclaredFieldsInert flips every
// field left out and requires byte-identical tables.
//
// ChaosSeed and Chaos reach a run only through the machines Stack.Build
// arms, and an armed machine consults its fault hooks only when an IPI
// arrives (CPU.arriveIPI) or a LAPIC timer expires (LAPIC.schedule).
// Outside tests, only heartbeat's Nautilus-IPI substrate sends IPIs
// (BroadcastIPI) or arms a LAPIC timer (Periodic); Kernel.StartTimers
// has no caller outside tests. So only nautilus and fig3, which build
// heartbeat runtimes, declare them. Entries that leave out a field
// their drivers do touch say why the touch is dead.
var experiments = []struct {
	id         string
	reads      field
	when, also field
}{
	// The CPU count is fixed at 16 (NewStack(16)).
	{id: "nautilus", reads: fieldSeed | fieldChaos},
	// The CPU count is fixed at 16 (NewStack(16), DefaultFig3Config).
	{id: "fig3", reads: fieldSeed | fieldChaos | fieldDomains | fieldOverheads | fieldSweep,
		when: fieldSweep, also: fieldSmallAxes},
	// The seed goes to linux.New, but nothing draws on its generator
	// here: Fig4 and GranularityLimit call only linux's
	// ContextSwitchCost, a sum of model constants. The one-CPU Nautilus
	// kernels it builds send no IPI and arm no timer, so a plan arms
	// nothing.
	{id: "fig4", reads: fieldGranularity},
	// The kernels run on the interpreter, not a machine; only the
	// allocator statistics' magazine demo draws on the seed.
	{id: "carat", reads: fieldMobility | fieldMemStats, when: fieldMemStats, also: fieldSeed},
	// The omp runtimes price regions in closed form from a CPU count and
	// the model: they build no machine, so no plan is armed.
	{id: "fig6", reads: fieldSeed | fieldEPCC, when: fieldEPCC, also: fieldCPUs},
	// The memory-system runs build coherence systems, not machines.
	{id: "fig7", reads: fieldSeed | fieldSweep | fieldAblate, when: fieldSweep, also: fieldSmallAxes},
	{id: "virtine", reads: fieldSeed},
	{id: "pipeline", reads: fieldSeed},
	// Blending reads only the model's interrupt costs.
	{id: "blending"},
	{id: "farmem", reads: fieldSeed},
	{id: "consistency"},
	// The CPU count is fixed at 16; CrossISA builds both ISAs' stacks
	// itself, at the default seed and unarmed.
	{id: "riscv"},
	{id: "paging"},
	// TaskGranularity builds seeded runtimes and no machine, and
	// RunTaskGraph is a list schedule over per-mode dispatch costs: it
	// draws on no generator.
	{id: "tasks", reads: fieldCPUs},
}

// ExperimentIDs returns the registered experiment IDs in canonical
// (`interweave all`) order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// ValidExperiment reports whether id names a registered experiment.
func ValidExperiment(id string) bool {
	for _, e := range experiments {
		if e.id == id {
			return true
		}
	}
	return false
}

// reads returns the fields cfg's experiment reads at cfg's sub-report
// flags, and false for an unregistered experiment.
func (cfg RunConfig) reads() (field, bool) {
	for _, e := range experiments {
		if e.id == cfg.Experiment {
			if cfg.flags()&e.when != 0 {
				return e.reads | e.also, true
			}
			return e.reads, true
		}
	}
	return 0, false
}

// flags returns the sub-report flags cfg turns on.
func (cfg RunConfig) flags() field {
	var f field
	for _, s := range [...]struct {
		on bool
		f  field
	}{
		{cfg.Overheads, fieldOverheads}, {cfg.Granularity, fieldGranularity},
		{cfg.Mobility, fieldMobility}, {cfg.MemStats, fieldMemStats},
		{cfg.EPCC, fieldEPCC}, {cfg.Sweep, fieldSweep},
		{cfg.Ablate, fieldAblate}, {cfg.SmallAxes, fieldSmallAxes},
	} {
		if s.on {
			f |= s.f
		}
	}
	return f
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
// output. Its canonical Key addresses the result, not the request: it
// hashes only the fields the experiment reads (see coords), so two
// RunConfigs with equal Keys produce byte-identical tables, and two
// that differ only in fields their experiment ignores share one Key —
// which is why the experiment service uses the Key as the job ID. The
// JSON tags are the service's wire form: optional fields
// marshal away when zero, while cpus and seed are always written
// because their defaults are nonzero (a decoder starts from
// DefaultRunConfig, so an omitted field keeps its default and an
// explicit 0 reaches Validate).
type RunConfig struct {
	// Experiment is the registered experiment ID (see ExperimentIDs).
	Experiment string `json:"experiment"`
	// CPUs is the CPU count tasks reads, and fig6 with EPCC; no other
	// experiment reads it. Defaults are applied by DefaultRunConfig, not
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
// the config.
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

// coords projects cfg onto its experiment's result coordinates: the
// fields the registry table declares for it keep their values, and
// every other field is reset to its DefaultRunConfig value. Generating
// from the projection gives cfg's tables byte for byte
// (TestUndeclaredFieldsInert), so the projection is what Key hashes and
// what Run generates from. An unregistered experiment is returned as
// is; Validate rejects it.
func (cfg RunConfig) coords() RunConfig {
	reads, ok := cfg.reads()
	if !ok {
		return cfg
	}
	p := DefaultRunConfig(cfg.Experiment)
	if reads&fieldCPUs != 0 {
		p.CPUs = cfg.CPUs
	}
	if reads&fieldSeed != 0 {
		p.Seed = cfg.Seed
	}
	if reads&fieldChaos != 0 {
		p.ChaosSeed, p.Chaos = cfg.ChaosSeed, cfg.Chaos
	}
	if reads&fieldDomains != 0 {
		p.Domains = cfg.Domains
	}
	on := reads & cfg.flags()
	p.Overheads = on&fieldOverheads != 0
	p.Granularity = on&fieldGranularity != 0
	p.Mobility = on&fieldMobility != 0
	p.MemStats = on&fieldMemStats != 0
	p.EPCC = on&fieldEPCC != 0
	p.Sweep = on&fieldSweep != 0
	p.Ablate = on&fieldAblate != 0
	p.SmallAxes = on&fieldSmallAxes != 0
	return p
}

// Key canonicalizes the result cfg names: experiment ID plus the
// fields of its projection (coords), and nothing else. The code that
// computes the result is not in the key; the build stamp on the stored
// table set guards it (see CachedTablesCtx). Pool width is excluded —
// output is byte-identical at every setting, the package's standing
// guarantee.
func (cfg RunConfig) Key() cache.Key {
	cfg = cfg.coords()
	e := cache.NewEnc()
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
	// RunConfig.Key (see CachedTablesCtx). A config with sub-reports
	// also reads and writes its plain form's entry (see extend), and
	// concurrent runs share one computation of a plain form's set (see
	// plainTables).
	Cache *cache.Cache
	// Pool, when non-nil, is the shared admission-control pool every
	// run's cells go through (see Exec.Pool). Nil builds a fresh pool
	// of width Parallel per driver call, the CLI's behavior; a set Pool
	// makes Parallel unused.
	Pool *exp.Pool

	mu      sync.Mutex
	flights map[cache.Key]*plainFlight // plain forms being computed
}

// plainFlight is one computation of a plain form's table set in
// progress (Runner.plainTables). done closes when it ends; ts and src
// are set before that, ts nil if the computation did not finish.
// waiters counts the runs that joined it, under Runner.mu.
type plainFlight struct {
	done    chan struct{}
	ts      []*Table
	src     cache.Source
	waiters int
}

// Run regenerates cfg's tables. It validates cfg as given, then
// generates from its projection (coords), so the tables are those of
// every config with cfg's Key. observe, when non-nil, receives a
// CellEvent as each experiment cell completes (see Exec.Observe).
// The returned source is the tier that served the whole table set
// (computed, mem or disk).
//
// Unlike the drivers (which panic on cell failure), Run returns the one
// expected failure as an error: cancellation of ctx (classify with
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
		if errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			err = e
			return
		}
		panic(rec)
	}()
	x := Exec{Parallel: r.Parallel, Pool: r.Pool, Ctx: ctx, Observe: observe}
	cfg = cfg.coords()
	if r.Cache == nil {
		return cfg.generate(x, false), cache.SourceComputed, nil
	}
	if cfg.flags() == 0 {
		tables, src = r.plainTables(cfg, x)
		return tables, src, nil
	}
	return CachedTablesCtx(ctx, r.Cache, cfg.Key(), func() []*Table { return r.extend(cfg, x) })
}

// plainTables returns the table set of cfg, a plain form, through
// r.Cache: the stored entry if there is one, else one computation
// shared by every run that wants the set while it is in progress. A
// plain job and the sub-report jobs extending it (extend) thus compute
// the plain table once between them. The leading run stores the set
// before the others receive it, and they report its source. If the
// leading run is cancelled, the others compute the set afresh, one of
// them leading. A run cancelled while it waits panics with its
// context's error, like a cancelled driver.
func (r *Runner) plainTables(cfg RunConfig, x Exec) ([]*Table, cache.Source) {
	key := cfg.Key()
	for {
		r.mu.Lock()
		f, ok := r.flights[key]
		if !ok {
			if r.flights == nil {
				r.flights = make(map[cache.Key]*plainFlight)
			}
			f = &plainFlight{done: make(chan struct{})}
			r.flights[key] = f
			r.mu.Unlock()
			r.lead(key, cfg, x, f)
			return f.ts, f.src
		}
		f.waiters++
		r.mu.Unlock()
		select {
		case <-f.done:
		case <-x.ctx().Done():
			panic(x.ctx().Err())
		}
		if f.ts != nil {
			return f.ts, f.src
		}
	}
}

// lead fills f with cfg's tables through CachedTablesCtx: the entry
// stored under key, or else the generated set, stored. Looking up only
// after f is in r.flights means a run that finds no flight also finds
// the entry a finished flight stored. However lead ends, f leaves
// r.flights and its waiters wake.
func (r *Runner) lead(key cache.Key, cfg RunConfig, x Exec, f *plainFlight) {
	defer func() {
		r.mu.Lock()
		delete(r.flights, key)
		r.mu.Unlock()
		close(f.done)
	}()
	ts, src, err := CachedTablesCtx(x.ctx(), r.Cache, key, func() []*Table { return cfg.generate(x, false) })
	if err != nil {
		panic(err)
	}
	f.ts, f.src = ts, src
}

// plain returns the plain form of cfg: every sub-report flag cleared,
// projected onto the experiment's result coordinates.
func (cfg RunConfig) plain() RunConfig {
	cfg.Overheads, cfg.Granularity, cfg.Mobility, cfg.MemStats = false, false, false, false
	cfg.EPCC, cfg.Sweep, cfg.Ablate, cfg.SmallAxes = false, false, false, false
	return cfg.coords()
}

// extend generates the tables of a config with sub-reports on a miss
// of its own key. Such a config's tables are its plain form's one table
// followed by the sub-reports (TestSubReportsExtendPlainForm). So the
// plain table comes from plainTables — r.Cache's entry, a computation
// another run has in progress, or one this run leads and stores for
// later plain jobs — and only the sub-reports are generated, after it.
// A run cancelled in generate panics before its put.
func (r *Runner) extend(cfg RunConfig, x Exec) []*Table {
	plain, _ := r.plainTables(cfg.plain(), x)
	return append(plain[:len(plain):len(plain)], cfg.generate(x, true)...)
}

// generate dispatches to the experiment's drivers — the registry
// proper. Every stack a case builds goes through stack, so the
// execution context and the result coordinates reach every driver.
// havePlain says the caller already holds the plain form's table
// (Runner.extend): the case then skips the plain drivers and returns
// the sub-reports alone.
//
// Most drivers have no cell loop to stop between cells, so generate
// checks x's context itself, before its first driver and after each
// table: a cancelled run panics with the context's error, which Run
// returns, instead of finishing and returning tables.
func (cfg RunConfig) generate(x Exec, havePlain bool) []*Table {
	ctx := x.ctx()
	check := func() {
		if err := ctx.Err(); err != nil {
			panic(err)
		}
	}
	check()
	stack := func(s *Stack) *Stack {
		s.Exec = x
		s.Seed, s.ChaosSeed, s.ChaosConfig = cfg.Seed, cfg.ChaosSeed, cfg.Chaos
		return s
	}
	var tables []*Table
	emit := func(t *Table) {
		check()
		tables = append(tables, t)
	}
	switch cfg.Experiment {
	case "nautilus":
		emit(stack(NewStack(16)).Primitives())
	case "fig3":
		s := stack(NewStack(16))
		f3 := DefaultFig3Config()
		f3.Domains = cfg.Domains
		if !havePlain {
			emit(s.Fig3(f3))
		}
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
		if !havePlain {
			emit(s.Fig4())
		}
		if cfg.Granularity {
			emit(s.GranularityLimit(0.5))
		}
	case "carat":
		s := stack(NewStack(1))
		if !havePlain {
			emit(s.CARAT())
		}
		if cfg.Mobility {
			emit(s.CARATMobility())
		}
		if cfg.MemStats {
			emit(s.MemStats())
		}
	case "fig6":
		s := stack(KNLStack(1))
		if !havePlain {
			emit(s.Fig6(DefaultFig6Config()))
		}
		if cfg.EPCC {
			emit(s.EPCC(cfg.CPUs))
			emit(s.Schedules(cfg.CPUs))
		}
	case "fig7":
		s := stack(ServerStack())
		if !havePlain {
			emit(s.Fig7())
		}
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
		emit(stack(NewStack(16)).CrossISA())
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
