// Package core is the public face of the reproduction: it composes the
// compiler passes, runtimes, kernels, and hardware models of internal/*
// into the interwoven stacks the paper describes, and provides one
// harness per table/figure that regenerates the paper's results.
//
// The paper's primary contribution is the *interweaving model* itself —
// custom integration of functionality formerly kept distinct at each
// layer. Stack is that model made concrete: a builder that selects a
// hardware platform, a kernel timing discipline, compiler passes, and a
// runtime, and wires them together.
package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

// Table is a printable experiment result, shaped like the paper's
// figures' underlying data.
type Table struct {
	ID     string // experiment id, e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// JSON renders the table as a JSON object for downstream tooling.
func (t *Table) JSON() string {
	b, err := json.MarshalIndent(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}, "", "  ")
	if err != nil {
		// The table is plain strings; marshalling cannot fail.
		panic(err)
	}
	return string(b)
}

// Digest returns a canonical FNV-1a digest of the table's content: ID,
// header, rows, and notes, each length-prefixed so cell boundaries are
// part of the form. Two tables render identically (String and JSON are
// pure functions of these fields plus Title) exactly when their
// ID/header/rows/notes agree, so the digest doubles as the cache's
// integrity check and as the heartbeat schedule pin
// (TestHeartbeatScheduleDigests) — and is
// invariant across pool widths, engines, and cache state by the
// package's determinism guarantee.
func (t *Table) Digest() uint64 {
	h := fnv.New64a()
	put := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	putRow := func(cells []string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(cells)))
		h.Write(n[:])
		for _, c := range cells {
			put(c)
		}
	}
	put(t.ID)
	putRow(t.Header)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(t.Rows)))
	h.Write(n[:])
	for _, r := range t.Rows {
		putRow(r)
	}
	putRow(t.Notes)
	return h.Sum64()
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Exec is a stack's execution context: the knobs that decide how its
// experiment cells run, never what they compute. No field of Exec
// reaches RunConfig.Key, and tables are byte-identical at every
// setting, so the split between Exec and Stack's own fields is the
// split between execution knobs and result coordinates.
type Exec struct {
	// Parallel bounds how many independent experiment cells (sweep
	// points, substrates, benchmarks) run concurrently: 0 means
	// exp.DefaultWorkers() ($INTERWEAVE_PARALLEL or GOMAXPROCS), 1
	// forces sequential execution. Results are bit-identical at every
	// setting: each cell builds its own machine and RNG from the seed,
	// and rows are assembled in canonical order.
	Parallel int
	// Pool, when non-nil, is the worker pool every driver admits its
	// cells through, instead of a fresh exp.New(Parallel) per driver
	// call. A long-running service sets one shared pool on every stack
	// it builds, so total cell concurrency across all concurrent jobs
	// stays bounded.
	Pool *exp.Pool
	// Ctx, when non-nil, cancels the stack's drivers between cells:
	// cells that have not started when Ctx ends are skipped and the
	// driver fails with Ctx's error. Cells already running always run
	// to completion. Nil means never cancelled.
	Ctx context.Context
	// Observe, when non-nil, receives a CellEvent as each experiment
	// cell completes. At Parallel 1 the sequence is deterministic (cells
	// complete in index order); wider pools report completion order.
	Observe func(CellEvent)
}

// ctx returns the context, never nil.
func (x *Exec) ctx() context.Context {
	if x.Ctx != nil {
		return x.Ctx
	}
	return context.Background()
}

// pool returns the worker pool for experiment cells: the shared Pool
// when one is set, else a fresh pool of width Parallel.
func (x *Exec) pool() *exp.Pool {
	if x.Pool != nil {
		return x.Pool
	}
	return exp.New(x.Parallel)
}

// Stack is the interweaving builder: it fixes a platform model,
// topology, and seed, and constructs the simulated machine the layered
// components run on. Its own fields are result coordinates; how its
// cells run is the embedded Exec.
type Stack struct {
	Exec

	Model model.Model
	Topo  machine.Topology
	Seed  uint64
	// Shards is inert: Build ignores it and always builds the one
	// sequential sim.Engine.
	//
	// Deprecated: the sharded event engine it selected is retired
	// (DESIGN.md §3e). The field remains only because the frozen
	// benchmark harness (perfbench/fig3.go) still sets it; delete it
	// with the next change allowed to touch perfbench/.
	Shards int
	// ChaosSeed, when non-zero, arms the deterministic fault-injection
	// harness (internal/chaos) on every machine this stack builds: IPI
	// drop/delay and LAPIC timer jitter at the hardware layer, with
	// rates from chaos.DefaultConfig. Every Build derives a fresh plan
	// from this same seed, so each experiment cell sees an identical,
	// replayable fault schedule regardless of which pool worker runs it
	// — output stays byte-identical across -parallel settings, and
	// byte-identical between two runs with the same -chaos-seed.
	ChaosSeed uint64
	// ChaosConfig overrides the fault rates a nonzero ChaosSeed arms
	// (nil means chaos.DefaultConfig()). RunConfig.Key folds the
	// effective rates into every armed key.
	ChaosConfig *chaos.Config

	// coherenceRuns, when non-nil, shares Fig. 7 memory-system runs
	// between the drivers and cells this stack runs (see coherenceStats).
	// It is a memo keyed by result coordinates, not a knob.
	coherenceRuns *coherenceRuns
}

// CellEvent reports the completion of one experiment cell — the
// progress granule the experiment service streams to clients.
type CellEvent struct {
	Driver string // driver id, e.g. "fig3-sweep"
	Cell   int    // cell index within the driver invocation
	Of     int    // total cells in the driver invocation
}

// chaosRates returns the fault rates a nonzero chaos seed arms on a
// machine (ArmChaos): the IPI and timer rates of c when set, else of
// chaos.DefaultConfig(). The alloc, wake and step rates drive injectors
// only the chaos harness installs, so they are left out here and never
// reach a key.
func chaosRates(c *chaos.Config) chaos.Config {
	r := chaos.DefaultConfig()
	if c != nil {
		r = *c
	}
	return chaos.Config{
		IPIDropProb: r.IPIDropProb, IPIDelayProb: r.IPIDelayProb, IPIDelayMax: r.IPIDelayMax,
		TimerJitterProb: r.TimerJitterProb, TimerJitterMax: r.TimerJitterMax,
	}
}

// runCells evaluates n independent experiment cells on s's execution
// context and returns the results in index order, panicking on any
// cell failure (the drivers' error discipline throughout this package).
// driver is the driver id reported in each cell's Observe event. When
// the context ends, cells that have not started are skipped and the
// cancellation surfaces through the driver's panic as a *exp.CellError
// chain.
func runCells[T any](s *Stack, driver string, n int, fn func(i int) T) []T {
	x := &s.Exec
	ctx := x.ctx()
	out, err := exp.Map(x.pool(), n, func(i int) (T, error) {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		v := fn(i)
		if x.Observe != nil {
			x.Observe(CellEvent{Driver: driver, Cell: i, Of: n})
		}
		return v, nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// NewStack returns a stack on the default 1 GHz platform with the given
// CPU count (single socket).
func NewStack(cpus int) *Stack {
	return &Stack{
		Model: model.Default(),
		Topo:  machine.Topology{Sockets: 1, CoresPerSocket: cpus},
		Seed:  42,
	}
}

// KNLStack returns a Xeon-Phi-KNL-like stack (Fig. 4 / Fig. 6 platform).
func KNLStack(cpus int) *Stack {
	s := NewStack(cpus)
	s.Model = model.KNL()
	return s
}

// ServerStack returns the dual-socket server stack (Fig. 7 platform).
func ServerStack() *Stack {
	return &Stack{
		Model: model.Server(),
		Topo:  machine.Topology{Sockets: 2, CoresPerSocket: 12},
		Seed:  42,

		coherenceRuns: newCoherenceRuns(),
	}
}

// WithCPUs derives a stack on a single-socket topology of the given CPU
// count, with the same execution context and coordinates. Topology is part of the machine's construction-time config —
// Build sizes every per-CPU structure from it and the machine exposes it
// read-only afterwards — so sweeps derive a fresh stack per point
// instead of mutating one that has already built machines.
func (s *Stack) WithCPUs(cpus int) *Stack {
	st := *s
	st.Topo = machine.Topology{Sockets: 1, CoresPerSocket: cpus}
	return &st
}

// Build instantiates a fresh engine and machine for one experiment run.
func (s *Stack) Build() (*sim.Engine, *machine.Machine) {
	eng := sim.NewEngine()
	m := machine.New(eng, s.Model, s.Topo)
	if s.ChaosSeed != 0 {
		ArmChaos(m, chaos.NewPlan(s.ChaosSeed, chaosRates(s.ChaosConfig)))
	}
	return eng, m
}

// ArmChaos installs plan's hardware-layer injectors on m: IPI loss and
// delay on every inter-processor send, and jitter on every LAPIC timer
// expiry. Site streams are keyed by destination CPU, so the schedule a
// CPU experiences is independent of the other CPUs' traffic.
func ArmChaos(m *machine.Machine, plan *chaos.Plan) *chaos.Plan {
	ipi := plan.IPIInjector("machine/ipi")
	m.IPIFault = func(src, dst int, v machine.Vector) (bool, int64) {
		return ipi(src, dst, int(v))
	}
	tmr := plan.TimerInjector("machine/timer")
	m.TimerFault = func(cpu int, v machine.Vector, delay int64) int64 {
		return tmr(cpu, int(v), delay)
	}
	return plan
}

// us formats cycles as microseconds under the stack's clock.
func (s *Stack) us(c int64) string {
	return fmt.Sprintf("%.1fµs", s.Model.CyclesToMicros(c))
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// f2 formats with two decimals.
func f2(f float64) string { return fmt.Sprintf("%.2f", f) }

// f1 formats with one decimal.
func f1(f float64) string { return fmt.Sprintf("%.1f", f) }

// i64 formats an integer.
func i64(v int64) string { return fmt.Sprintf("%d", v) }
