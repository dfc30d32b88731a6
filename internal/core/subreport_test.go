package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/cache"
)

// subReportCases pairs each experiment that has sub-report flags with
// flagged configs of it. plain is the config with every sub-report flag
// cleared; each flagged config differs from it in sub-report flags and
// in coordinates only those flags read (carat's seed under MemStats,
// fig6's CPU count under EPCC).
var subReportCases = []struct {
	name    string
	plain   RunConfig
	flagged []RunConfig
}{
	{"fig3", DefaultRunConfig("fig3"), []RunConfig{
		cfgWith("fig3", func(c *RunConfig) { c.Overheads = true }),
		cfgWith("fig3", func(c *RunConfig) { c.Sweep, c.SmallAxes = true, true }),
	}},
	{"fig3-chaos", cfgWith("fig3", func(c *RunConfig) { c.ChaosSeed = 7 }), []RunConfig{
		cfgWith("fig3", func(c *RunConfig) { c.ChaosSeed, c.Overheads = 7, true }),
		cfgWith("fig3", func(c *RunConfig) { c.ChaosSeed, c.Sweep, c.SmallAxes = 7, true, true }),
	}},
	{"fig4", DefaultRunConfig("fig4"), []RunConfig{
		cfgWith("fig4", func(c *RunConfig) { c.Granularity = true }),
	}},
	{"carat", DefaultRunConfig("carat"), []RunConfig{
		cfgWith("carat", func(c *RunConfig) { c.Mobility = true }),
		cfgWith("carat", func(c *RunConfig) { c.MemStats, c.Seed = true, 5 }),
		cfgWith("carat", func(c *RunConfig) { c.Mobility, c.MemStats = true, true }),
	}},
	{"fig6", cfgWith("fig6", func(c *RunConfig) { c.Seed = 3 }), []RunConfig{
		cfgWith("fig6", func(c *RunConfig) { c.EPCC, c.CPUs, c.Seed = true, 64, 3 }),
	}},
	{"fig7", DefaultRunConfig("fig7"), []RunConfig{
		cfgWith("fig7", func(c *RunConfig) { c.Sweep, c.SmallAxes = true, true }),
		cfgWith("fig7", func(c *RunConfig) { c.Ablate = true }),
	}},
}

// runDigests runs cfg on r and returns each table's digest.
func runDigests(t *testing.T, r *Runner, cfg RunConfig) []uint64 {
	t.Helper()
	tables, _, err := r.Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	ds := make([]uint64, len(tables))
	for i, tb := range tables {
		ds[i] = tb.Digest()
	}
	return ds
}

// TestSubReportsExtendPlainForm pins the property the result cache's
// sub-report reuse rests on: a flagged run's first table is the plain
// run's one table, byte for byte, and the sub-reports follow it. It
// then runs each plain and flagged pair through a fresh cache in both
// orders: every result must equal the uncached run, and the second run
// must hit the plain form's entry exactly once, whether the first run
// stored it as a plain job or as a flagged one.
func TestSubReportsExtendPlainForm(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig3 and fig7 several times")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the plain test run covers it")
	}
	for _, tc := range subReportCases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plain := runDigests(t, &Runner{}, tc.plain)
			if len(plain) != 1 {
				t.Fatalf("plain %s: %d tables, want 1", tc.name, len(plain))
			}
			for _, cfg := range tc.flagged {
				want := runDigests(t, &Runner{}, cfg)
				if len(want) < 2 || want[0] != plain[0] {
					t.Errorf("%+v: digests %x, want %x followed by sub-reports", cfg, want, plain[0])
				}
				for _, order := range [][]RunConfig{{tc.plain, cfg}, {cfg, tc.plain}} {
					r := &Runner{Cache: cache.New(cache.Config{})}
					for _, c := range order {
						exp := want
						if c == tc.plain {
							exp = plain
						}
						if got := runDigests(t, r, c); !slices.Equal(got, exp) {
							t.Errorf("%+v after %+v: cached digests %x, uncached %x", c, order[0], got, exp)
						}
					}
					if hits := r.Cache.Stats().Hits; hits != 1 {
						t.Errorf("%+v then %+v: %d cache hits, want 1 (the plain form's entry)", order[0], order[1], hits)
					}
				}
			}
		})
	}
}
