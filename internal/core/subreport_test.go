package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/workloads"
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

// TestCancelledLeaderLeavesTheWaiterToLead: a plain carat run that
// joined a carat -mobility run's computation of the carat table
// computes and stores the table itself when that run is cancelled. The
// leader is held in its first carat cell until the plain run is parked
// on its flight, so the wake-and-lead path runs every time.
func TestCancelledLeaderLeavesTheWaiterToLead(t *testing.T) {
	t.Parallel()
	plain := DefaultRunConfig("carat")
	want := runDigests(t, &Runner{}, plain)
	key := plain.Key()
	r := &Runner{Parallel: 1, Cache: cache.New(cache.Config{})}

	leadCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inCell, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	leadErr := make(chan error, 1)
	go func() {
		mob := cfgWith("carat", func(c *RunConfig) { c.Mobility = true })
		_, _, err := r.Run(leadCtx, mob, func(CellEvent) {
			once.Do(func() { close(inCell); <-hold })
		})
		leadErr <- err
	}()
	<-inCell

	type result struct {
		tables []*Table
		src    cache.Source
		cells  int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		res.tables, res.src, res.err = r.Run(context.Background(), plain, func(e CellEvent) {
			if e.Driver == "carat" {
				res.cells++
			}
		})
		done <- res
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		f := r.flights[key]
		parked := f != nil && f.waiters == 1
		r.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			close(hold)
			t.Fatal("the plain run never joined the leader's flight")
		}
	}
	cancel()
	close(hold)

	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("carat -mobility: err %v, want context.Canceled", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("carat: %v", res.err)
	}
	var got []uint64
	for _, tb := range res.tables {
		got = append(got, tb.Digest())
	}
	if !slices.Equal(got, want) {
		t.Errorf("carat after a cancelled leader: digests %x, uncached %x", got, want)
	}
	if kernels := len(workloads.CARATSuite()); res.src != cache.SourceComputed || res.cells != kernels {
		t.Errorf("carat after a cancelled leader: source %s with %d carat cells, want computed with %d",
			res.src, res.cells, kernels)
	}
	if _, _, ok := LookupTables(r.Cache, key); !ok {
		t.Error("no carat entry after the waiting run computed the table")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.flights) != 0 {
		t.Errorf("%d flights left after both runs ended", len(r.flights))
	}
}
