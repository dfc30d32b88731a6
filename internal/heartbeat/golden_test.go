package heartbeat

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/observables.json")

// goldenCase is one point of the observables grid.
type goldenCase struct {
	sub     Substrate
	cpus    int
	period  int64
	seed    uint64
	chaos   bool
	domains int // 0: legacy global stealing
}

func (c goldenCase) name() string {
	mode := "legacy"
	if c.domains > 0 {
		mode = fmt.Sprintf("domains=%d", c.domains)
	}
	return fmt.Sprintf("%s/cpus=%d/period=%d/seed=%d/chaos=%v/%s",
		c.sub, c.cpus, c.period, c.seed, c.chaos, mode)
}

// goldenItems sizes every grid run: long enough that idle workers poll
// thousands of times, short enough that the grid stays a unit test.
const goldenItems = 200_000

// goldenCases is the observables grid: every substrate, CPU count, ♥,
// seed and chaos setting, in legacy mode and in steal-domain mode.
// Domain mode uses 4 domains, or one per worker on the 2-CPU machine,
// which also covers single-worker domains.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, sub := range []Substrate{SubstrateNautilusIPI, SubstrateLinuxSignals, SubstrateLinuxPolling} {
		for _, cpus := range []int{2, 8, 16, 33} {
			for _, period := range []int64{20_000, 100_000} {
				for _, seed := range []uint64{1, 42} {
					for _, ch := range []bool{false, true} {
						cs = append(cs, goldenCase{sub, cpus, period, seed, ch, 0},
							goldenCase{sub, cpus, period, seed, ch, min(4, cpus)})
					}
				}
			}
		}
	}
	return cs
}

// newGoldenRuntime builds case c's runtime on a fresh engine,
// with the hardware fault hooks armed when c.chaos is set.
func newGoldenRuntime(c goldenCase) *Runtime {
	m := machine.New(sim.NewEngine(), model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: c.cpus})
	if c.chaos {
		plan := chaos.NewPlan(c.seed^0xc4a05, chaos.DefaultConfig())
		ipi := plan.IPIInjector("machine/ipi")
		m.IPIFault = func(src, dst int, v machine.Vector) (bool, int64) { return ipi(src, dst, int(v)) }
		tmr := plan.TimerInjector("machine/timer")
		m.TimerFault = func(cpu int, v machine.Vector, delay int64) int64 { return tmr(cpu, int(v), delay) }
	}
	cfg := DefaultConfig()
	cfg.Substrate = c.sub
	cfg.PeriodCycles = c.period
	cfg.Seed = c.seed
	cfg.Domains = c.domains
	return New(m, cfg)
}

// goldenEntry pins one finished run.
type goldenEntry struct {
	DoneAt        int64  `json:"done_at"`
	StealAttempts int64  `json:"steal_attempts"`
	Digest        string `json:"digest"`
}

// observe reduces a finished run to everything a caller can read back:
// every WorkerStats field (Beats by hash), the completion time, every
// CPU's machine counters and the bits of OverheadFraction.
func observe(rt *Runtime) goldenEntry {
	var sb strings.Builder
	var attempts int64
	fmt.Fprintf(&sb, "done=%d overhead=%#x\n", rt.DoneAt(), math.Float64bits(rt.OverheadFraction()))
	for i := 0; i < rt.NumWorkers(); i++ {
		ws := *rt.WorkerStats(i)
		attempts += ws.StealAttempts
		beats := sha256.Sum256([]byte(fmt.Sprint(ws.Beats)))
		ws.Beats = nil
		fmt.Fprintf(&sb, "w%d %+v beats=%d/%x cpu=%+v\n", i, ws, len(rt.WorkerStats(i).Beats), beats[:8], rt.M.CPU(i).Stats)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return goldenEntry{DoneAt: int64(rt.DoneAt()), StealAttempts: attempts, Digest: fmt.Sprintf("%x", sum[:16])}
}

// readGolden loads testdata/observables.json.
func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "observables.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestObservablesGolden pins the runtime's observables over the
// goldenCases grid to testdata/observables.json. Rewrite the file with
// `go test -run TestObservablesGolden ./internal/heartbeat -args -update`
// only when a run's results are meant to change.
func TestObservablesGolden(t *testing.T) {
	t.Parallel()
	got := map[string]goldenEntry{}
	for _, c := range goldenCases() {
		rt := newGoldenRuntime(c)
		rt.Run(goldenItems, 40, 64)
		got[c.name()] = observe(rt)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "observables.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, c := range goldenCases() {
		if g, w := got[c.name()], want[c.name()]; g != w {
			t.Errorf("%s: got %+v, want %+v", c.name(), g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cases, grid has %d", len(want), len(got))
	}
}

// TestPromotionOnBatchTick steps one grid case event by event. IdleBackoff
// divides ♥ there, so some beats land on ticks where an idle batch is
// due: the promotion queues a frame, and the batch firing later in the
// same tick must step its members for real instead of advancing in
// O(1). The case must produce such ticks, and its observables must
// still match the golden.
func TestPromotionOnBatchTick(t *testing.T) {
	t.Parallel()
	c := goldenCase{sub: SubstrateNautilusIPI, cpus: 33, period: 20_000, seed: 42}
	rt := newGoldenRuntime(c)
	eng := rt.M.Eng
	promotions := func() (n int64) {
		for _, w := range rt.workers {
			n += w.stats.Promotions
		}
		return n
	}
	if !rt.start(goldenItems, 40, 64) {
		t.Fatal("nothing to run")
	}
	ticks := 0
	for rt.running {
		before := promotions()
		if !eng.Step() {
			t.Fatal("engine drained before the run finished")
		}
		if promotions() == before {
			continue
		}
		for _, w := range rt.workers {
			if b := w.batch; b != nil && b.at == eng.Now() {
				ticks++
				break
			}
		}
	}
	rt.settleIdle()
	if ticks == 0 {
		t.Fatal("no promotion landed on a tick where an idle batch was still due")
	}
	want := readGolden(t)
	if got := observe(rt); got != want[c.name()] {
		t.Fatalf("%s stepped by hand: got %+v, want %+v", c.name(), got, want[c.name()])
	}
	t.Logf("%d promotions landed on a tick with an idle batch still due", ticks)
}

// TestIdleJoinRule pins the join rule on a hand-built tick. Workers 1
// and 2 go idle at time 0; between them, an event due at IdleBackoff is
// scheduled that queues a frame on workers 0 and 1. Worker 2's poll
// would fire after that event and steal, so it must not join worker 1's
// batch, which fires before it, and it must steal once, as its own poll
// event would have. Without the event in between, worker 2 joins and
// steals nothing.
func TestIdleJoinRule(t *testing.T) {
	t.Parallel()
	for _, between := range []bool{true, false} {
		rt := newRuntime(3, DefaultConfig())
		eng := rt.M.Eng
		rt.running, rt.remaining = true, 1000
		rt.workers[1].step()
		if between {
			eng.At(sim.Time(rt.Cfg.IdleBackoff), func() {
				for _, w := range rt.workers[:2] {
					w.deque.PushBottom(&Frame{Lo: 0, Hi: 500, CyclesPerItem: 1, Grain: 64})
					rt.queued++
				}
			})
		}
		rt.workers[2].step()
		batches := 0
		if b1, b2 := rt.workers[1].batch, rt.workers[2].batch; b1 != nil && b2 != nil {
			batches = 2
			if b1 == b2 {
				batches = 1
			}
		}
		eng.RunUntil(sim.Time(rt.Cfg.IdleBackoff))
		rt.settleIdle()
		wantBatches, wantHits := 2, int64(1)
		if !between {
			wantBatches, wantHits = 1, 0
		}
		if batches != wantBatches {
			t.Errorf("between=%v: workers 1 and 2 wait in %d batches, want %d", between, batches, wantBatches)
		}
		if hits := rt.workers[2].stats.StealHits; hits != wantHits {
			t.Errorf("between=%v: worker 2 steal hits %d, want %d", between, hits, wantHits)
		}
	}
}
