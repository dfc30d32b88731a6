package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/stats"
)

// fig3WideCPUs are the top points of `fig3 -sweep`: steal-domain mode on
// the sharded engine, one domain (= shard) per 32 CPUs.
var fig3WideCPUs = []int{256, 512, 1024}

// fig3WidePeriodUS is the sweep's heartbeat target ♥.
const fig3WidePeriodUS = 20

func fig3WideName(seed uint64) string {
	return fmt.Sprintf("fig3-wide seed=%d cpus=%v", seed, fig3WideCPUs)
}

// fig3WideTable runs the sweep through core.Stack at the given pool
// width (0 = default), reporting each completed cell to observe.
func fig3WideTable(seed uint64, parallel int, observe func(core.CellEvent)) *core.Table {
	s := core.NewStack(16)
	s.Seed = seed
	s.Parallel = parallel
	s.Observe = observe
	return s.Fig3SweepCounts(fig3WidePeriodUS, fig3WideCPUs)
}

// fig3Wide exercises the sharded event engine that suite-cold never
// reaches: deep per-shard heaps, cross-shard events and window barriers.
// A sim change tuned on suite-cold that slows the sharded path shows
// here. Cells run at width 1 with GOMAXPROCS 1, so each engine runs its
// shards on one worker: with two workers on a shared 2-CPU host, every
// window barrier waits out the co-tenants' load on the other CPU, and
// one seed read 7.5-9.3 s of wall time from run to run.
func fig3Wide(seed uint64, chk *checker) *workload {
	runtime.GOMAXPROCS(1)
	var last *core.Table
	return &workload{
		name: "fig3-wide",
		chk:  chk,
		// Three passes, so that each cell's median over them can drop a
		// slow spell of the host.
		minPasses: 3,
		setup:     saltSetup,
		pass: func(traced bool) (*pass, error) {
			cells := 0
			m, err := startMeter(traced)
			if err != nil {
				return nil, err
			}
			// At width 1 the cells run one after another, so each
			// completion ends the part that times it.
			t := fig3WideTable(seed, 1, func(core.CellEvent) {
				cells++
				m.mark()
			})
			p, err := m.stop()
			if err != nil {
				return nil, err
			}
			chk.observe(fig3WideName(seed), kindTables, entryOf([]*core.Table{t}).want(kindTables),
				func() ([]*core.Table, error) { return []*core.Table{fig3WideTable(seed, 0, nil)}, nil })
			p.retainedMB = liveHeapMB()
			p.ops = 1
			p.counters["exp.cells"] = float64(cells)
			last = t
			return p, nil
		},
		replay: func(counters map[string]float64) error {
			events, ns, err := replayFig3Wide(seed, last)
			if err != nil {
				return err
			}
			counters["sim.events"] = float64(events)
			counters["sim.ns_per_event"] = ns
			return nil
		},
	}
}

// replayFig3Wide re-runs every cell of the sweep through the public
// calls the sweep makes (Stack.Build, heartbeat.New, Runtime.Run) and
// reads the engines' fired-event counts: an exact measure of simulated
// work that must repeat run to run. The replayed rows must reproduce the
// registry's table digest, or the replay is not measuring the same
// simulation. It returns the events fired and host wall ns per event.
func replayFig3Wide(seed uint64, want *core.Table) (uint64, float64, error) {
	st := core.NewStack(16)
	st.Seed = seed
	st.Parallel = 1
	subs := []heartbeat.Substrate{heartbeat.SubstrateNautilusIPI, heartbeat.SubstrateLinuxSignals}
	got := *want
	got.Rows = nil
	var events uint64
	var wall time.Duration
	for _, cpus := range fig3WideCPUs {
		row := []string{fmt.Sprint(cpus)}
		for _, sub := range subs {
			cfg := core.DefaultFig3Config()
			cfg.CPUs = cpus
			cfg.Items = core.Fig3SweepItems(cpus)
			cfg.Domains = core.Fig3SweepDomains(cpus)
			cs := st.WithCPUs(cpus)
			if cfg.Domains > 1 {
				cs.Shards = cfg.Domains
			}
			period := st.Model.MicrosToCycles(fig3WidePeriodUS)
			t0 := time.Now()
			eng, m := cs.Build()
			hcfg := heartbeat.DefaultConfig()
			hcfg.Substrate = sub
			hcfg.PeriodCycles = period
			hcfg.Seed = seed
			hcfg.Domains = cfg.Domains
			rt := heartbeat.New(m, hcfg)
			rt.Run(cfg.Items, cfg.CyclesPerItem, cfg.Grain)
			wall += time.Since(t0)
			events += eng.Fired()
			target := 1e6 / float64(period)
			row = append(row, fmt.Sprintf("%.2f", stats.Mean(rt.AchievedRates())/target))
		}
		got.Rows = append(got.Rows, row)
	}
	if got.Digest() != want.Digest() {
		return 0, 0, fmt.Errorf("fig3-wide replay digest %016x != registry table %016x", got.Digest(), want.Digest())
	}
	if events == 0 {
		return 0, 0, fmt.Errorf("fig3-wide replay fired no events")
	}
	return events, float64(wall.Nanoseconds()) / float64(events), nil
}
