package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
)

// suiteConfig is experiment id in the `interweave all` configuration:
// every sub-report on, sweep axes trimmed to the small-N points.
func suiteConfig(id string, seed uint64) core.RunConfig {
	cfg := core.DefaultRunConfig(id)
	cfg.Seed = seed
	cfg.Overheads, cfg.Granularity, cfg.Mobility, cfg.MemStats = true, true, true, true
	cfg.EPCC, cfg.Sweep, cfg.Ablate, cfg.SmallAxes = true, true, true, true
	return cfg
}

// suiteCold is the ROADMAP's headline number: every experiment of
// `interweave all -parallel 1`, cold and uncached, in canonical order.
// It runs at width 1 because on a 2-CPU host three passes spread
// 31-33 s at width 1 but 16-24 s at width 2, too wide to resolve a layer
// change. A pass is one whole suite, so it is the unit even when it
// outlasts the budget.
func suiteCold(seed uint64, chk *checker) *workload {
	ids := core.ExperimentIDs()
	return &workload{
		name:      "suite-cold",
		chk:       chk,
		minPasses: 1,
		setup:     saltSetup,
		pass: func(traced bool) (*pass, error) {
			runner := &core.Runner{Parallel: 1}
			kept := make([][]*core.Table, len(ids))
			cells, failed := 0, 0
			m, err := startMeter(traced)
			if err != nil {
				return nil, err
			}
			for i, id := range ids {
				tables, _, err := runner.Run(context.Background(), suiteConfig(id, seed), func(core.CellEvent) { cells++ })
				m.mark()
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", id, err)
					failed++
				}
				kept[i] = tables
			}
			p, err := m.stop()
			if err != nil {
				return nil, err
			}
			// The tables stay live through the heap measurement, as the CLI
			// holds them until it prints.
			p.retainedMB = liveHeapMB()
			for i, id := range ids {
				p.counters["core."+id+"_s"] = p.partWall[i]
				if kept[i] == nil {
					continue
				}
				cfg := suiteConfig(id, seed)
				chk.observe(configName(cfg), kindTables, entryOf(kept[i]).want(kindTables),
					func() ([]*core.Table, error) { return runConfig(cfg) })
			}
			p.ops, p.failed = len(ids), failed
			p.counters["exp.cells"] = float64(cells)
			return p, nil
		},
	}
}
