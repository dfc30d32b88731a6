package heartbeat

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestFrameSplit(t *testing.T) {
	t.Parallel()
	f := &Frame{Lo: 0, Hi: 100, CyclesPerItem: 10, Grain: 8}
	if !f.Splittable() {
		t.Fatal("should be splittable")
	}
	u := f.Split()
	if f.Lo != 0 || f.Hi != 50 || u.Lo != 50 || u.Hi != 100 {
		t.Fatalf("split wrong: f=%+v u=%+v", f, u)
	}
	small := &Frame{Lo: 0, Hi: 10, Grain: 8}
	if small.Splittable() {
		t.Fatal("too small to split")
	}
}

func TestSplitAboveRespectsFloor(t *testing.T) {
	t.Parallel()
	f := &Frame{Lo: 0, Hi: 100, Grain: 4}
	u := f.SplitAbove(60)
	if u == nil {
		t.Fatal("expected split")
	}
	if u.Lo < 60 {
		t.Fatalf("split cut into in-flight slice: upper.Lo = %d", u.Lo)
	}
	if f.Hi != u.Lo || u.Hi != 100 {
		t.Fatalf("ranges wrong: f=%+v u=%+v", f, u)
	}
	// Floor leaves less than 2*grain above: no split.
	g := &Frame{Lo: 0, Hi: 100, Grain: 30}
	if g.SplitAbove(50) != nil {
		t.Fatal("split despite insufficient room above floor")
	}
}

func TestSplitConservesItemsProperty(t *testing.T) {
	t.Parallel()
	check := func(hi uint16, floorRaw uint16, grain uint8) bool {
		h := int64(hi)%1000 + 2
		g := int64(grain)%20 + 1
		f := &Frame{Lo: 0, Hi: h, Grain: g}
		floor := int64(floorRaw) % (h + 10)
		total := f.Remaining()
		u := f.SplitAbove(floor)
		if u == nil {
			return f.Remaining() == total
		}
		return f.Remaining()+u.Remaining() == total && u.Lo >= floor && f.Hi == u.Lo
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDequeOrdering(t *testing.T) {
	t.Parallel()
	d := NewDeque()
	f1 := &Frame{Lo: 1}
	f2 := &Frame{Lo: 2}
	f3 := &Frame{Lo: 3}
	d.PushBottom(f1)
	d.PushBottom(f2)
	d.PushBottom(f3)
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	// Owner pops LIFO.
	if d.PopBottom() != f3 {
		t.Fatal("pop should be LIFO")
	}
	// Thief steals FIFO.
	if d.StealTop() != f1 {
		t.Fatal("steal should be FIFO")
	}
	if d.PopBottom() != f2 {
		t.Fatal("remaining element wrong")
	}
	if d.PopBottom() != nil || d.StealTop() != nil {
		t.Fatal("empty deque should return nil")
	}
}

func TestDequeCompaction(t *testing.T) {
	t.Parallel()
	d := NewDeque()
	for i := 0; i < 200; i++ {
		d.PushBottom(&Frame{Lo: int64(i)})
	}
	for i := 0; i < 150; i++ {
		if f := d.StealTop(); f.Lo != int64(i) {
			t.Fatalf("steal order broken at %d", i)
		}
	}
	if d.Len() != 50 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}

func newRuntime(cpus int, cfg Config) *Runtime {
	eng := sim.NewEngine()
	m := machine.New(eng, model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: cpus})
	return New(m, cfg)
}

func TestRunCompletesAllWork(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	rt := newRuntime(4, cfg)
	rt.Run(100_000, 50, 32)
	if rt.DoneAt() == 0 {
		t.Fatal("never finished")
	}
	var items int64
	for i := 0; i < rt.NumWorkers(); i++ {
		items += rt.WorkerStats(i).Items
	}
	if items != 100_000 {
		t.Fatalf("items executed = %d, want 100000", items)
	}
}

func TestHeartbeatPromotesParallelism(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.PeriodCycles = 20_000
	rt := newRuntime(8, cfg)
	rt.Run(400_000, 40, 64)
	var promos, stealHits int64
	workersWithWork := 0
	for i := 0; i < rt.NumWorkers(); i++ {
		ws := rt.WorkerStats(i)
		promos += ws.Promotions
		stealHits += ws.StealHits
		if ws.Items > 0 {
			workersWithWork++
		}
	}
	if promos == 0 {
		t.Fatal("heartbeats never promoted")
	}
	if stealHits == 0 {
		t.Fatal("no steals: parallelism never spread")
	}
	if workersWithWork < 6 {
		t.Fatalf("only %d workers did work", workersWithWork)
	}
}

func TestParallelSpeedup(t *testing.T) {
	t.Parallel()
	run := func(cpus int) int64 {
		cfg := DefaultConfig()
		cfg.PeriodCycles = 20_000
		rt := newRuntime(cpus, cfg)
		rt.Run(400_000, 40, 64)
		return int64(rt.DoneAt())
	}
	t1 := run(1)
	t8 := run(8)
	speedup := float64(t1) / float64(t8)
	if speedup < 4 {
		t.Fatalf("8-CPU speedup = %.2f, want >= 4", speedup)
	}
}

func TestNautilusHitsTargetRate(t *testing.T) {
	t.Parallel()
	// §IV-B / Fig. 3: Nautilus hits the target heartbeat rate with a
	// consistent, stable period even at ♥ = 20 µs and 16 CPUs.
	cfg := DefaultConfig()
	cfg.PeriodCycles = 20_000 // 20 µs at 1 GHz
	rt := newRuntime(16, cfg)
	rt.Run(3_000_000, 40, 64)

	gaps := rt.InterBeatGaps()
	if len(gaps) == 0 {
		t.Fatal("no beats observed")
	}
	mean := stats.Mean(gaps)
	if rel := mean/float64(cfg.PeriodCycles) - 1; rel > 0.02 || rel < -0.02 {
		t.Fatalf("mean gap %.0f vs target %d (off by %.1f%%)", mean, cfg.PeriodCycles, rel*100)
	}
	if cv := stats.CoefVar(gaps); cv > 0.05 {
		t.Fatalf("gap CV = %.3f; Nautilus heartbeat must be stable", cv)
	}
}

func TestLinuxSignalsCollapseAt20us(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping 16-CPU signal-collapse run in -short mode")
	}
	// Fig. 3: the best Linux signal mechanism cannot sustain ♥ = 20 µs
	// at 16 CPUs — the achieved rate falls far below target.
	mk := func(substrate Substrate) float64 {
		cfg := DefaultConfig()
		cfg.Substrate = substrate
		cfg.PeriodCycles = 20_000
		rt := newRuntime(16, cfg)
		rt.Run(3_000_000, 40, 64)
		rates := rt.AchievedRates()
		return stats.Mean(rates) // beats per 1e6 cycles
	}
	target := 1e6 / 20_000.0 // 50 beats per Mcycle
	nk := mk(SubstrateNautilusIPI)
	lx := mk(SubstrateLinuxSignals)
	if nk < target*0.97 {
		t.Fatalf("nautilus rate %.1f below target %.1f", nk, target)
	}
	if lx > target*0.7 {
		t.Fatalf("linux signals achieved %.1f of target %.1f; should collapse", lx, target)
	}
}

func TestLinuxSignalsUnstableAt100us(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping long-horizon signal-jitter run in -short mode")
	}
	// Fig. 3 right panel: even at ♥ = 100 µs Linux cannot deliver a
	// consistent rate (high inter-beat variance), while Nautilus can.
	mk := func(substrate Substrate) float64 {
		cfg := DefaultConfig()
		cfg.Substrate = substrate
		cfg.PeriodCycles = 100_000
		rt := newRuntime(16, cfg)
		rt.Run(6_000_000, 40, 64)
		return stats.CoefVar(rt.InterBeatGaps())
	}
	nkCV := mk(SubstrateNautilusIPI)
	lxCV := mk(SubstrateLinuxSignals)
	if nkCV > 0.05 {
		t.Fatalf("nautilus CV = %.3f, want ~0", nkCV)
	}
	if lxCV < 3*nkCV || lxCV < 0.05 {
		t.Fatalf("linux CV = %.3f vs nautilus %.3f; Linux must be visibly unstable", lxCV, nkCV)
	}
}

func TestOverheadNautilusVsLinuxPolling(t *testing.T) {
	t.Parallel()
	// §IV-B: scheduling overheads are 13–22% on Linux and at most 4.9%
	// in Nautilus (at ♥ = 100 µs).
	mk := func(substrate Substrate) float64 {
		cfg := DefaultConfig()
		cfg.Substrate = substrate
		cfg.PeriodCycles = 100_000
		rt := newRuntime(16, cfg)
		rt.Run(3_000_000, 40, 64)
		return rt.OverheadFraction()
	}
	nk := mk(SubstrateNautilusIPI)
	lx := mk(SubstrateLinuxPolling)
	if nk > 0.049 {
		t.Fatalf("nautilus overhead = %.1f%%, paper bound is 4.9%%", nk*100)
	}
	if lx < 0.10 || lx > 0.30 {
		t.Fatalf("linux polling overhead = %.1f%%, paper range is 13-22%%", lx*100)
	}
	if lx < 2*nk {
		t.Fatalf("linux (%.3f) must be well above nautilus (%.3f)", lx, nk)
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	run := func() (int64, int64) {
		cfg := DefaultConfig()
		cfg.PeriodCycles = 30_000
		rt := newRuntime(8, cfg)
		rt.Run(200_000, 40, 64)
		var promos int64
		for i := 0; i < rt.NumWorkers(); i++ {
			promos += rt.WorkerStats(i).Promotions
		}
		return int64(rt.DoneAt()), promos
	}
	a1, p1 := run()
	a2, p2 := run()
	if a1 != a2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, p1, a2, p2)
	}
}

func TestSubstrateString(t *testing.T) {
	t.Parallel()
	if SubstrateNautilusIPI.String() != "nautilus-ipi" ||
		SubstrateLinuxSignals.String() != "linux-signals" ||
		SubstrateLinuxPolling.String() != "linux-polling" {
		t.Fatal("substrate names wrong")
	}
}

func TestPopBottomReleasesSlot(t *testing.T) {
	t.Parallel()
	d := NewDeque()
	d.PushBottom(&Frame{Lo: 1})
	d.PushBottom(&Frame{Lo: 2})
	if d.PopBottom() == nil {
		t.Fatal("pop failed")
	}
	// The vacated backing-array slot must be nil so the popped *Frame is
	// collectable (StealTop already does this at the thief end).
	if got := d.items[:2][1]; got != nil {
		t.Fatalf("PopBottom retained pointer in vacated slot: %+v", got)
	}
}

// TestRunAllocationsPerStep is the allocation guard above the event
// engine. The engine recycles its event slots, idle batches are reused,
// and the callbacks that fire on most events are bound once per object:
// the idle batch's fire (almost every event of a linux-signals run,
// since worker 0 hosts the pacer and no beat promotes its work) and
// CPU.finishRun plus worker.sliceDone (slice completions, most of a
// nautilus-ipi run's events, where beats spread the work). A run must
// allocate less than half an object per simulated worker step (a steal
// attempt or a slice) and per engine event; a per-call method value on
// either path costs about one more per event of its kind and fails the
// per-event bound. The size floor counts steps, not events: one idle
// batch event stands for many failed polls. Steps are counted from
// below, as steal attempts plus each worker's items over SliceItems
// (a slice runs at most SliceItems items).
func TestRunAllocationsPerStep(t *testing.T) {
	for _, sub := range []Substrate{SubstrateLinuxSignals, SubstrateNautilusIPI} {
		var rt *Runtime
		allocs := testing.AllocsPerRun(1, func() {
			cfg := DefaultConfig()
			cfg.Substrate = sub
			rt = newRuntime(8, cfg)
			rt.Run(400_000, 40, 64)
		})
		var steps int64
		for _, w := range rt.workers {
			steps += w.stats.StealAttempts + w.stats.Items/rt.Cfg.SliceItems
		}
		if steps < 10_000 {
			t.Fatalf("%s: run took only %d steps; too small to measure", sub, steps)
		}
		fired := rt.M.Eng.Fired()
		perStep, perEvent := allocs/float64(steps), allocs/float64(fired)
		t.Logf("%s: %.0f allocations over %d steps and %d events (%.3f per step, %.3f per event)",
			sub, allocs, steps, fired, perStep, perEvent)
		if perStep >= 0.5 || perEvent >= 0.5 {
			t.Errorf("%s: %.2f allocations per step and %.2f per event, want both < 0.5", sub, perStep, perEvent)
		}
	}
}

// TestDomainReportAtIPILatency pins domainDone's report delay: in
// domain mode each finished domain notifies the coordinator one IPI
// latency after its last item, and the last report stops the substrate.
// On the Nautilus IPI and polling substrates nothing else is pending
// once the substrate stops, so the engine drains exactly one IPI
// latency after the last domain's completion, at any latency.
func TestDomainReportAtIPILatency(t *testing.T) {
	t.Parallel()
	for _, sub := range []Substrate{SubstrateNautilusIPI, SubstrateLinuxPolling} {
		for _, lat := range []int64{600, 1777} {
			mdl := model.Default()
			mdl.HW.IPILatency = lat
			m := machine.New(sim.NewEngine(), mdl, machine.Topology{Sockets: 1, CoresPerSocket: 16})
			cfg := DefaultConfig()
			cfg.Substrate = sub
			cfg.PeriodCycles = 20_000
			cfg.Seed = 42
			cfg.Domains = 4
			rt := New(m, cfg)
			rt.Run(200_000, 100, 64)
			if got := int64(m.Eng.Now()) - int64(rt.DoneAt()); got != lat {
				t.Errorf("%s, IPI latency %d: substrate stopped %d cycles after the last domain finished, want %d",
					sub, lat, got, lat)
			}
		}
	}
}
