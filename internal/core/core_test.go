package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// cell parses a table cell as a float, stripping units.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "µs")
	s = strings.TrimSuffix(s, " speedup")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func findRow(tab *Table, prefix string) int {
	for i, r := range tab.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return i
		}
	}
	return -1
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	s := tab.String()
	for _, want := range []string{"demo", "a", "bb", "hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	cfg := DefaultFig3Config()
	cfg.Items = 1_500_000
	tab := NewStack(16).Fig3(cfg)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows: (20µs nk, 20µs lx, 100µs nk, 100µs lx); column 4 is
	// achieved/target, column 5 is CV.
	nk20 := cell(t, tab, 0, 4)
	lx20 := cell(t, tab, 1, 4)
	nk100 := cell(t, tab, 2, 4)
	lx100cv := cell(t, tab, 3, 5)
	nk100cv := cell(t, tab, 2, 5)
	if nk20 < 0.97 || nk100 < 0.97 {
		t.Fatalf("nautilus must hit target: 20µs=%.2f 100µs=%.2f", nk20, nk100)
	}
	if lx20 > 0.7 {
		t.Fatalf("linux at 20µs achieved %.2f of target; must collapse", lx20)
	}
	if lx100cv < 2*nk100cv {
		t.Fatalf("linux CV %.2f must exceed nautilus CV %.2f", lx100cv, nk100cv)
	}
}

func TestFig3Overheads(t *testing.T) {
	t.Parallel()
	// Full workload length: overhead amortizes start-up/tail stealing.
	tab := NewStack(16).Fig3Overheads(DefaultFig3Config())
	nk := cell(t, tab, 0, 1)
	lx := cell(t, tab, 1, 1)
	if nk > 4.9 {
		t.Fatalf("nautilus overhead %.1f%% above the 4.9%% paper bound", nk)
	}
	if lx < 10 || lx > 30 {
		t.Fatalf("linux overhead %.1f%% outside the 13-22%% paper band (with slack)", lx)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	tab := KNLStack(1).Fig4()
	lxFP := cell(t, tab, findRow(tab, "linux thread (non-RT, FP)"), 1)
	if lxFP < 4800 || lxFP > 5200 {
		t.Fatalf("linux FP = %.0f, want ≈5000", lxFP)
	}
	thFP := cell(t, tab, findRow(tab, "nautilus threads (non-RT, FP)"), 1)
	if r := lxFP / thFP; r < 1.7 || r > 2.4 {
		t.Fatalf("nautilus thread FP should be about half of linux: ratio %.2f", r)
	}
	ctNoFP := cell(t, tab, findRow(tab, "nautilus fibers-comptime (no FP)"), 1)
	if ctNoFP >= 600 {
		t.Fatalf("compiler-timed no-FP switch = %.0f, paper says < 600", ctNoFP)
	}
	// The figure's callouts compare compiler-timed fibers to the
	// system's own hardware-timer threads: 2.3x with FP state, 4x
	// without.
	ctFP := cell(t, tab, findRow(tab, "nautilus fibers-comptime (FP)"), 1)
	if r := thFP / ctFP; r < 1.9 || r > 2.8 {
		t.Fatalf("comptime FP ratio vs threads = %.2f, want ≈2.3", r)
	}
	thNoFP := cell(t, tab, findRow(tab, "nautilus threads (non-RT, no FP)"), 1)
	if r := thNoFP / ctNoFP; r < 3.0 || r > 5.5 {
		t.Fatalf("comptime no-FP vs thread no-FP ratio = %.2f, want ≈4", r)
	}
	rtFP := cell(t, tab, findRow(tab, "nautilus threads (RT, FP)"), 1)
	if rtFP <= thFP {
		t.Fatal("RT must cost more than non-RT")
	}
}

func TestFig4Granularity(t *testing.T) {
	t.Parallel()
	tab := KNLStack(1).GranularityLimit(0.5)
	lx := cell(t, tab, 0, 2)
	ct := cell(t, tab, 2, 2)
	if lx/ct < 4 {
		t.Fatalf("granularity improvement %.1fx, paper claims >4x", lx/ct)
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	cfg := Fig6Config{CPUCounts: []int{8, 32, 64}, Kernels: DefaultFig6Config().Kernels, Steps: 3}
	tab := KNLStack(1).Fig6(cfg)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		rtk := cell(t, tab, i, 3)
		pik := cell(t, tab, i, 4)
		if rtk <= 1.0 {
			t.Fatalf("row %d: RTK ratio %.2f must beat linux", i, rtk)
		}
		if d := rtk - pik; d < 0 || d > 0.2 {
			t.Fatalf("row %d: PIK (%.2f) must perform similarly to RTK (%.2f)", i, pik, rtk)
		}
	}
	// The geomean note must exist.
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "geomean") {
		t.Fatal("missing geomean note")
	}
}

// TestFig6EPCCDigests pins `fig6 -epcc -cpus 64` byte for byte at two
// seeds other than the manifest's 42: the Fig 6 table, the EPCC sync
// overheads and the loop schedules.
func TestFig6EPCCDigests(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		seed uint64
		want [3]string // fig6, epcc, schedules
	}{
		{3, [3]string{"0a7fd4b5456f11a2", "4fa899cccb285a07", "8d6277c79d61a931"}},
		{17, [3]string{"0c1606c18a3db208", "d73a9805413ede8d", "8d6277c79d61a931"}},
	} {
		cfg := DefaultRunConfig("fig6")
		cfg.EPCC, cfg.CPUs, cfg.Seed = true, 64, c.seed
		tabs := cfg.generate(Exec{}, false)
		if len(tabs) != len(c.want) {
			t.Fatalf("seed %d: %d tables, want %d", c.seed, len(tabs), len(c.want))
		}
		for i, tab := range tabs {
			if got := fmt.Sprintf("%016x", tab.Digest()); got != c.want[i] {
				t.Errorf("seed %d: %s digest %s, want %s\n%s", c.seed, tab.ID, got, c.want[i], tab)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	t.Parallel()
	tab := ServerStack().Fig7()
	avg := findRow(tab, "average")
	if avg < 0 {
		t.Fatal("no average row")
	}
	sp := cell(t, tab, avg, 1)
	en := cell(t, tab, avg, 2)
	if sp < 1.25 || sp > 1.75 {
		t.Fatalf("average speedup %.2f, paper reports ≈1.46", sp)
	}
	if en < 35 || en > 70 {
		t.Fatalf("average energy reduction %.0f%%, paper reports ≈53%%", en)
	}
	// Every benchmark must individually benefit.
	for i := 0; i < avg; i++ {
		if cell(t, tab, i, 1) < 1.0 {
			t.Fatalf("benchmark %s slowed down", tab.Rows[i][0])
		}
	}
}

func TestFig7SweepGrowsWithScaleAndLatency(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping 10s+ scale sweep in -short mode")
	}
	// The small-N axis only: the 256/1024 points in the default axis
	// take minutes and belong to the CLI sweep, not the test gate.
	tab := ServerStack().Fig7SweepCores([]int{8, 16, 24, 48})
	// Rows are (cores, latX) pairs in order; compare 8-core 1x vs
	// 48-core 4x.
	first := cell(t, tab, 0, 2)
	last := cell(t, tab, len(tab.Rows)-1, 2)
	if last <= first {
		t.Fatalf("benefit must grow with scale and disaggregation: %.2f -> %.2f", first, last)
	}
}

func TestFig7Ablation(t *testing.T) {
	t.Parallel()
	tab := ServerStack().AblationSharingClasses()
	all := cell(t, tab, 0, 1)
	if all <= 1.0 {
		t.Fatal("full deactivation must speed up histogram")
	}
	for i := 1; i < len(tab.Rows); i++ {
		only := cell(t, tab, i, 1)
		if only > all+0.01 {
			t.Fatalf("single-class %s (%.2f) cannot beat all-classes (%.2f)", tab.Rows[i][0], only, all)
		}
	}
}

func TestCARATGeomeanUnderSix(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).CARAT()
	g := findRow(tab, "geomean")
	naive := cell(t, tab, g, 2)
	hoisted := cell(t, tab, g, 3)
	elim := cell(t, tab, g, 4)
	opt := cell(t, tab, g, 5)
	if hoisted >= 6 {
		t.Fatalf("hoisted geomean overhead %.1f%%, paper bound is <6%%", hoisted)
	}
	if naive < 3*hoisted {
		t.Fatalf("naive overhead %.1f%% should dwarf hoisted %.1f%%", naive, hoisted)
	}
	if elim > hoisted {
		t.Fatalf("elim geomean overhead %.1f%% exceeds hoisted %.1f%%", elim, hoisted)
	}
	// The analysis-driven optimizer runs on the instrumented module and
	// must pay for the remaining guards with its own speedup: its
	// geomean overhead (still measured against the unoptimized base)
	// stays under the elim configuration's.
	if opt > elim {
		t.Fatalf("opt geomean overhead %.1f%% exceeds elim %.1f%%", opt, elim)
	}
	// Semantics verified on every kernel, guard elimination monotone,
	// and on at least one kernel the dataflow pass removes >=10%% of the
	// dynamic guards that hoisting left behind (ISSUE 2 acceptance bar).
	bigCut := false
	shrunk := 0
	for i := 0; i < g; i++ {
		if tab.Rows[i][10] != "yes" {
			t.Fatalf("kernel %s semantics broken", tab.Rows[i][0])
		}
		var before, after int
		if _, err := fmt.Sscanf(tab.Rows[i][9], "%d->%d", &before, &after); err != nil {
			t.Fatalf("kernel %s: bad frame regs cell %q", tab.Rows[i][0], tab.Rows[i][9])
		}
		if after < before {
			shrunk++
		}
		gh := cell(t, tab, i, 7)
		ge := cell(t, tab, i, 8)
		if ge > gh {
			t.Fatalf("kernel %s: elim ran more guards (%v) than hoisted (%v)", tab.Rows[i][0], ge, gh)
		}
		if gh > 0 && ge <= 0.9*gh {
			bigCut = true
		}
	}
	if !bigCut {
		t.Fatal("no kernel had >=10%% of its remaining dynamic guards eliminated")
	}
	// ISSUE 7 acceptance bar: copy coalescing shrinks the entry frame on
	// at least 5 of the 8 kernels.
	if shrunk < 5 {
		t.Fatalf("frames shrank on only %d kernels, want >= 5", shrunk)
	}
}

func TestCARATMobility(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).CARATMobility()
	integ := findRow(tab, "pointer integrity")
	if tab.Rows[integ][2] != "verified" {
		t.Fatal("pointer integrity broken after compaction")
	}
	before := cell(t, tab, findRow(tab, "largest free span"), 1)
	after := cell(t, tab, findRow(tab, "largest free span"), 2)
	if after <= before {
		t.Fatalf("compaction did not defragment: %v -> %v KiB", before, after)
	}
}

func TestPrimitives(t *testing.T) {
	t.Parallel()
	tab := NewStack(16).Primitives()
	for _, prim := range []string{"thread create", "event signal (mean)", "context switch (FP)"} {
		i := findRow(tab, prim)
		lx := cell(t, tab, i, 1)
		nk := cell(t, tab, i, 2)
		if nk >= lx {
			t.Fatalf("%s: nautilus (%.0f) not faster than linux (%.0f)", prim, nk, lx)
		}
	}
	// Tail latency: orders of magnitude.
	i := findRow(tab, "event signal (p99 loaded)")
	if ratio := cell(t, tab, i, 1) / cell(t, tab, i, 2); ratio < 10 {
		t.Fatalf("p99 signal ratio = %.0fx, want >= 10x", ratio)
	}
	// The heartbeat app gives a lower-bound speedup; the OpenMP app at
	// scale lands in the paper's 20-40% band.
	a := findRow(tab, "heartbeat app")
	if sp := cell(t, tab, a, 3); sp < 5 || sp > 45 {
		t.Fatalf("heartbeat app speedup %.0f%%", sp)
	}
	o := findRow(tab, "OpenMP app")
	if sp := cell(t, tab, o, 3); sp < 15 || sp > 45 {
		t.Fatalf("OpenMP app speedup %.0f%%, paper band is 20-40%%", sp)
	}
}

func TestVirtinesShape(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).Virtines()
	cold := cell(t, tab, findRow(tab, "cold"), 1)
	snap := cell(t, tab, findRow(tab, "snapshot"), 1)
	pooled := cell(t, tab, findRow(tab, "pooled"), 1)
	if !(pooled < snap && snap < cold) {
		t.Fatalf("path ordering wrong: cold=%.1f snap=%.1f pooled=%.1f", cold, snap, pooled)
	}
	if cold < 80 || cold > 130 {
		t.Fatalf("cold start %.1fµs, paper says ≈100µs", cold)
	}
	fork := cell(t, tab, findRow(tab, "baseline fork/exec"), 1)
	if cold >= fork {
		t.Fatal("virtine must beat fork/exec")
	}
	b16 := cell(t, tab, findRow(tab, "bespoke 16-bit"), 1)
	b64 := cell(t, tab, findRow(tab, "bespoke long"), 1)
	if b16 >= b64 {
		t.Fatal("bespoke 16-bit context must boot faster")
	}
	// All three invocations computed fib(10) = 55.
	for _, p := range []string{"cold", "snapshot", "pooled"} {
		if v := cell(t, tab, findRow(tab, p), 4); v != 55 {
			t.Fatalf("%s returned %v, want 55", p, v)
		}
	}
}

func TestPipelineShape(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).Pipeline()
	mean := findRow(tab, "mean latency")
	sp := cell(t, tab, mean, 3)
	if sp < 100 || sp > 1000 {
		t.Fatalf("mean improvement %.0fx outside paper's 100-1000x", sp)
	}
}

func TestBlendingShape(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).Blending()
	polled := findRow(tab, "blended polling")
	intr := findRow(tab, "interrupt-driven")
	if tab.Rows[polled][3] != "0" {
		t.Fatal("blended design must take zero interrupts")
	}
	if cell(t, tab, intr, 3) <= 0 {
		t.Fatal("baseline must take interrupts")
	}
	served := cell(t, tab, findRow(tab, "packets served"), 1)
	if served <= 0 {
		t.Fatal("no packets served")
	}
	// Polling latency bounded by the check spacing.
	if p99 := cell(t, tab, polled, 2); p99 > 4000 {
		t.Fatalf("polling p99 = %.0f, should be bounded by check spacing", p99)
	}
}

func TestStackBuilders(t *testing.T) {
	t.Parallel()
	if s := KNLStack(4); s.Model.FreqGHz != 1.3 || s.Topo.NumCPUs() != 4 {
		t.Fatal("KNL stack wrong")
	}
	if s := ServerStack(); s.Topo.NumCPUs() != 24 || s.Model.FreqGHz != 3.3 {
		t.Fatal("server stack wrong")
	}
	eng, m := NewStack(2).Build()
	if eng == nil || len(m.CPUs) != 2 {
		t.Fatal("build wrong")
	}
}

func TestEPCCTable(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).EPCC(8)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Empty parallel region: linux overhead must exceed rtk.
	lx := cell(t, tab, 0, 1)
	rtk := cell(t, tab, 0, 2)
	if rtk >= lx {
		t.Fatalf("rtk %.0f >= linux %.0f", rtk, lx)
	}
}

func TestFarMemoryShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping multi-second far-memory sweep in -short mode")
	}
	tab := NewStack(1).FarMemory()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Small objects: blending must win big on latency and traffic.
	small := cell(t, tab, 0, 3)
	if small < 1.5 {
		t.Fatalf("128B speedup = %.2f, want > 1.5", small)
	}
	if cell(t, tab, 0, 5) >= cell(t, tab, 0, 4) {
		t.Fatal("blending traffic must be lower for small objects")
	}
	// Page-sized objects: roughly even.
	large := cell(t, tab, 3, 3)
	if large > small {
		t.Fatal("blending advantage must shrink as objects approach page size")
	}
}

func TestConsistencyShape(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).Consistency()
	// No unrelated stores: no reduction.
	if red := cell(t, tab, 0, 4); red != 0 {
		t.Fatalf("no-unrelated reduction = %v", red)
	}
	// Reduction grows with the unrelated fraction.
	prev := -1.0
	for i := 1; i < len(tab.Rows); i++ {
		red := cell(t, tab, i, 4)
		if red <= prev {
			t.Fatalf("reduction not monotone: row %d = %v", i, red)
		}
		prev = red
	}
	if prev < 70 {
		t.Fatalf("peak reduction = %v%%, want > 70%%", prev)
	}
}

func TestCrossISAShape(t *testing.T) {
	t.Parallel()
	tab := NewStack(16).CrossISA()
	// RISC-V dispatch is leaner.
	d := findRow(tab, "interrupt dispatch")
	if cell(t, tab, d, 2) >= cell(t, tab, d, 1) {
		t.Fatal("RISC-V trap entry should be cheaper")
	}
	// Both ISAs hold the heartbeat target.
	h := findRow(tab, "heartbeat 20µs")
	if cell(t, tab, h, 1) < 0.97 || cell(t, tab, h, 2) < 0.97 {
		t.Fatalf("heartbeat rates: %s", tab.Rows[h])
	}
	// Pipeline-interrupt headroom exists on both but is larger on x64.
	r := findRow(tab, "dispatch / predicted branch")
	if cell(t, tab, r, 1) <= cell(t, tab, r, 2) {
		t.Fatal("x64 should have more pipeline-interrupt headroom")
	}
}

func TestPagingShape(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).Paging()
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		demand := cell(t, tab, i, 1)
		ident := cell(t, tab, i, 2)
		none := cell(t, tab, i, 3)
		if none != 0 {
			t.Fatalf("%s: CARAT regime overhead = %v, want 0", r[0], none)
		}
		if ident > demand {
			t.Fatalf("%s: identity paging (%v) worse than 4K demand (%v)", r[0], ident, demand)
		}
		if demand <= 0 {
			t.Fatalf("%s: demand paging shows no overhead", r[0])
		}
	}
}

// TestPagingCells checks that paging runs its kernels as cells on the
// stack's execution context: each one is observed, and a cancelled
// context stops the run with the context's error.
func TestPagingCells(t *testing.T) {
	t.Parallel()
	cfg := DefaultRunConfig("paging")
	var cells atomic.Int32
	if _, _, err := (&Runner{Parallel: 2}).Run(context.Background(), cfg, func(e CellEvent) {
		if e.Driver == "paging" && e.Of == 8 {
			cells.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := cells.Load(); n != 8 {
		t.Errorf("%d paging cells observed, want 8", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (&Runner{}).Run(ctx, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled paging run: err %v, want context.Canceled", err)
	}
}

func TestTableJSON(t *testing.T) {
	t.Parallel()
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	tab.AddNote("n")
	js := tab.JSON()
	for _, want := range []string{`"id": "x"`, `"demo"`, `"rows"`, `"n"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}
}

func TestSchedulesTable(t *testing.T) {
	t.Parallel()
	tab := NewStack(1).Schedules(16)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Uniform: static <= dynamic for both runtimes.
	for i := 0; i < 2; i++ {
		if cell(t, tab, i, 2) > cell(t, tab, i, 3) {
			t.Fatalf("row %d: static should win on uniform", i)
		}
	}
	// Triangular: dynamic < static.
	for i := 2; i < 4; i++ {
		if cell(t, tab, i, 3) >= cell(t, tab, i, 2) {
			t.Fatalf("row %d: dynamic should win under imbalance", i)
		}
	}
}

func TestTaskGranularityShape(t *testing.T) {
	t.Parallel()
	tab := KNLStack(1).TaskGranularity(16)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At 100-cycle leaves, Linux overhead/work must exceed 1 and the
	// kernel paths must be strictly better in both columns.
	if cell(t, tab, 0, 3) <= 1 {
		t.Fatal("linux overhead should exceed work at 100-cycle tasks")
	}
	if cell(t, tab, 2, 2) >= cell(t, tab, 0, 2) {
		t.Fatal("CCK should finish fine-grain DAG sooner than linux")
	}
	// At 10k-cycle leaves, everyone's overhead fraction is small.
	for i := 6; i < 9; i++ {
		if cell(t, tab, i, 3) > 0.1 {
			t.Fatalf("row %d: coarse tasks show %.2f overhead", i, cell(t, tab, i, 3))
		}
	}
}

func TestFig3SweepScaleDecay(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping 10s+ heartbeat scale sweep in -short mode")
	}
	tab := NewStack(16).Fig3SweepCounts(20, []int{8, 16, 32, 64, 128})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Nautilus holds the target at every scale.
	for i := range tab.Rows {
		if cell(t, tab, i, 1) < 0.97 {
			t.Fatalf("row %d: nautilus %v below target", i, cell(t, tab, i, 1))
		}
	}
	// Linux achieved/target must decay once the pacer outruns the
	// timer floor (beyond ~32 CPUs).
	if cell(t, tab, 4, 2) >= cell(t, tab, 1, 2) {
		t.Fatalf("linux rate did not decay with scale: %v -> %v",
			cell(t, tab, 1, 2), cell(t, tab, 4, 2))
	}
}

// TestParallelDeterminism verifies the tentpole guarantee: for the same
// seed, the parallel runner produces byte-identical encoded tables at
// any worker count, because each cell's machine and RNG derive only from
// the seed and cell index (pre-split, canonical assembly order).
func TestParallelDeterminism(t *testing.T) {
	t.Parallel()
	drivers := []struct {
		name string
		gen  func(s *Stack) *Table
	}{
		{"fig3", func(s *Stack) *Table {
			cfg := DefaultFig3Config()
			cfg.Items = 400_000
			return s.Fig3(cfg)
		}},
		{"fig3-overheads", func(s *Stack) *Table {
			cfg := DefaultFig3Config()
			cfg.Items = 400_000
			return s.Fig3Overheads(cfg)
		}},
		{"carat", (*Stack).CARAT},
		{"fig7-ablation", (*Stack).AblationSharingClasses},
		{"virtine", (*Stack).Virtines},
		{"fig6", func(s *Stack) *Table {
			return s.Fig6(Fig6Config{CPUCounts: []int{2, 8}, Kernels: DefaultFig6Config().Kernels, Steps: 2})
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			stack := func(par int) *Stack {
				var s *Stack
				switch d.name {
				case "fig7-ablation":
					s = ServerStack()
				case "fig6":
					s = KNLStack(1)
				default:
					s = NewStack(16)
				}
				s.Parallel = par
				return s
			}
			seq := d.gen(stack(1)).JSON()
			for _, par := range []int{2, 8} {
				if got := d.gen(stack(par)).JSON(); got != seq {
					t.Fatalf("parallel=%d output differs from sequential:\n%s\n---\n%s", par, got, seq)
				}
			}
		})
	}
}
