package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/chaos"
)

// cfgWith returns experiment id's default config with set applied.
func cfgWith(id string, set func(*RunConfig)) RunConfig {
	cfg := DefaultRunConfig(id)
	set(&cfg)
	return cfg
}

// cachedConfigs is the config set the cache tests run through
// Runner.Run: one per driver family with cell-structured work, named
// after the driver each one adds. slow marks the full-size heartbeat
// and coherence workloads (seconds each, tens under -race); -short and
// the race build skip them, since the cheaper configs drive the same
// cache paths.
var cachedConfigs = []struct {
	name string
	cfg  RunConfig
	slow bool
}{
	{"fig3", DefaultRunConfig("fig3"), true},
	{"carat", DefaultRunConfig("carat"), false},
	{"fig7-ablation", cfgWith("fig7", func(c *RunConfig) { c.Ablate = true }), true},
	{"virtine", DefaultRunConfig("virtine"), false},
	{"memstats", cfgWith("carat", func(c *RunConfig) { c.MemStats = true }), false},
	{"fig6", DefaultRunConfig("fig6"), false},
}

// runRendered runs cfg on r and returns the CLI's bytes for it plus the
// tier that served the table set.
func runRendered(t *testing.T, r *Runner, cfg RunConfig) (string, cache.Source) {
	t.Helper()
	tables, src, err := r.Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Experiment, err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String(), src
}

// cachedTables is CachedTablesCtx with no deadline, failing t on error.
func cachedTables(t *testing.T, c *cache.Cache, key cache.Key, gen func() []*Table) []*Table {
	t.Helper()
	ts, _, err := CachedTablesCtx(context.Background(), c, key, gen)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestCachedRunsByteIdentical is the result cache's acceptance test:
// for every config, Runner.Run output is byte-identical between the
// uncached run, a cold run at pool width 2, a warm run at width 8, and
// a run through a fresh Cache over the same spill directory (a
// simulated process restart). All configs share one Cache, as the
// daemon's jobs do, and each leg must be served by the tier it names.
func TestCachedRunsByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	shared := cache.New(cache.Config{Dir: dir})
	restarted := cache.New(cache.Config{Dir: dir})
	for _, tc := range cachedConfigs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.slow && (raceEnabled || testing.Short()) {
				t.Skip("full-size workload; skipped under -short and -race")
			}
			want, _ := runRendered(t, &Runner{Parallel: 1}, tc.cfg)
			for _, leg := range []struct {
				name string
				r    *Runner
				src  cache.Source
			}{
				{"cold", &Runner{Parallel: 2, Cache: shared}, cache.SourceComputed},
				{"warm", &Runner{Parallel: 8, Cache: shared}, cache.SourceMem},
				{"spill-restart", &Runner{Parallel: 1, Cache: restarted}, cache.SourceDisk},
			} {
				got, src := runRendered(t, leg.r, tc.cfg)
				if got != want {
					t.Fatalf("%s run differs from uncached:\n%s\n---\n%s", leg.name, got, want)
				}
				if src != leg.src {
					t.Fatalf("%s run served by %v, want %v", leg.name, src, leg.src)
				}
			}
		})
	}
}

// TestOverlappingConfigsByteIdentical runs a config whose tables extend
// an already-cached config's (carat then carat+mobility, fig6 then
// fig6+EPCC) through one cached Runner. The second config has its own
// key, so it computes in full, and its bytes equal its uncached run.
func TestOverlappingConfigsByteIdentical(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name          string
		first, second RunConfig
	}{
		{"carat-mobility", DefaultRunConfig("carat"), cfgWith("carat", func(c *RunConfig) { c.Mobility = true })},
		{"fig6-epcc", DefaultRunConfig("fig6"), cfgWith("fig6", func(c *RunConfig) { c.EPCC = true })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := &Runner{Parallel: 2, Cache: cache.New(cache.Config{})}
			runRendered(t, r, tc.first)
			got, src := runRendered(t, r, tc.second)
			if src != cache.SourceComputed {
				t.Fatalf("second config served by %v, want computed", src)
			}
			if want, _ := runRendered(t, &Runner{Parallel: 1}, tc.second); got != want {
				t.Fatalf("second config differs from its uncached run:\n%s\n---\n%s", got, want)
			}
		})
	}
}

// TestCachedTablesRoundTrip exercises CachedTablesCtx directly: whole
// table sets round-trip byte-identically through memory and disk, with
// the Table digest verified on the way back in.
func TestCachedTablesRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	gen := func() []*Table {
		s := NewStack(16)
		s.Parallel = 2
		cfg := DefaultFig3Config()
		cfg.Items = 400_000
		return []*Table{s.Fig3Overheads(cfg), s.MemStats()}
	}
	render := func(ts []*Table) string {
		var out string
		for _, tb := range ts {
			out += tb.JSON()
		}
		return out
	}
	key := cache.NewEnc().Str("test", "tables-roundtrip").Sum()
	want := render(gen())
	c1 := cache.New(cache.Config{Dir: dir})
	if got := render(cachedTables(t, c1, key, gen)); got != want {
		t.Fatal("cold CachedTablesCtx differs from direct generation")
	}
	ran := false
	got := render(cachedTables(t, c1, key, func() []*Table { ran = true; return gen() }))
	if ran {
		t.Fatal("warm CachedTablesCtx re-ran the generator")
	}
	if got != want {
		t.Fatal("warm CachedTablesCtx differs")
	}
	c2 := cache.New(cache.Config{Dir: dir})
	if got := render(cachedTables(t, c2, key, func() []*Table { t.Fatal("restart re-ran"); return nil })); got != want {
		t.Fatal("spill-restart CachedTablesCtx differs")
	}
	// A nil cache or zero key is transparent.
	if got := render(cachedTables(t, nil, key, gen)); got != want {
		t.Fatal("nil-cache CachedTablesCtx differs")
	}
	if got := render(cachedTables(t, c1, cache.Key{}, gen)); got != want {
		t.Fatal("zero-key CachedTablesCtx differs")
	}
}

// TestChaosKeysNeverAlias pins the fault-injection isolation rule:
// chaos-seeded configs derive different keys than clean ones (and than
// each other, and than the same seed at other rates), so a
// fault-injected result can never be served to a clean run.
func TestChaosKeysNeverAlias(t *testing.T) {
	t.Parallel()
	mk := func(chaosSeed uint64) cache.Key {
		return cfgWith("fig3", func(c *RunConfig) { c.ChaosSeed = chaosSeed }).Key()
	}
	clean, chaos7, chaos8 := mk(0), mk(7), mk(8)
	if clean == chaos7 || clean == chaos8 || chaos7 == chaos8 {
		t.Fatalf("chaos plans alias: clean=%s chaos7=%s chaos8=%s", clean, chaos7, chaos8)
	}
	rates := chaos.DefaultConfig()
	if cfgWith("fig3", func(c *RunConfig) { c.ChaosSeed, c.Chaos = 7, &rates }).Key() != chaos7 {
		t.Fatal("explicit default rates keyed apart from the defaults they equal")
	}
	rates.IPIDropProb /= 2
	if cfgWith("fig3", func(c *RunConfig) { c.ChaosSeed, c.Chaos = 7, &rates }).Key() == chaos7 {
		t.Fatal("chaos rates not in the key")
	}

	// Run-level check: a clean run warms the cache; an armed run over
	// the same shared cache must not hit any of its entries.
	c := cache.New(cache.Config{})
	r := &Runner{Cache: c}
	run := func(chaosSeed uint64) {
		// carat runs on the interpreter, not a simulated machine, so
		// chaos-armed runs complete.
		if _, _, err := r.Run(context.Background(), cfgWith("carat", func(c *RunConfig) { c.ChaosSeed = chaosSeed }), nil); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	st := c.Stats()
	run(9)
	st2 := c.Stats()
	if st2.Hits != st.Hits {
		t.Fatalf("chaos-armed run hit clean entries: %+v -> %+v", st, st2)
	}
	if st2.Computes <= st.Computes {
		t.Fatal("chaos-armed run computed nothing (keys aliased)")
	}
}

// TestTableDigest pins the digest's contract: equality across pool
// widths and cache states, sensitivity to every content field.
func TestTableDigest(t *testing.T) {
	t.Parallel()
	gen := func(par int) []*Table {
		s := NewStack(16)
		s.Parallel = par
		cfg := DefaultFig3Config()
		cfg.Items = 400_000
		return []*Table{s.Fig3Overheads(cfg)}
	}
	ref := gen(1)[0].Digest()
	if gen(8)[0].Digest() != ref {
		t.Fatal("digest varies with pool width")
	}
	c := cache.New(cache.Config{})
	key := cache.NewEnc().Str("test", "table-digest").Sum()
	for _, state := range []string{"cold", "warm"} {
		if cachedTables(t, c, key, func() []*Table { return gen(2) })[0].Digest() != ref {
			t.Fatalf("digest varies with cache state (%s)", state)
		}
	}

	base := &Table{ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	d := base.Digest()
	if d != (&Table{ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}).Digest() {
		t.Fatal("digest not deterministic")
	}
	mutations := map[string]*Table{
		"id":     {ID: "y", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}},
		"header": {ID: "x", Header: []string{"a", "c"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}},
		"row":    {ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "3"}}, Notes: []string{"n"}},
		"note":   {ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"m"}},
		// Cell boundaries are part of the form: ["ab"] vs ["a","b"].
		"split": {ID: "x", Header: []string{"ab"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}},
	}
	for name, m := range mutations {
		if m.Digest() == d {
			t.Errorf("%s change did not change the digest", name)
		}
	}
}

// TestVersionSaltStable pins that the salt is memoized and stable
// within a build, and that RunConfig.Key is a function of the result
// coordinates alone. Pool width and engine sharding live on Runner, so
// they cannot reach the key.
func TestVersionSaltStable(t *testing.T) {
	t.Parallel()
	if VersionSalt() != VersionSalt() {
		t.Fatal("salt unstable across calls")
	}
	a := DefaultRunConfig("fig3").Key()
	if DefaultRunConfig("fig3").Key() != a {
		t.Fatal("Key unstable for identical configs")
	}
	if DefaultRunConfig("fig4").Key() == a {
		t.Fatal("experiment id not in the key")
	}
	if cfgWith("fig3", func(c *RunConfig) { c.CPUs = 32 }).Key() == a {
		t.Fatal("cpus not in the key")
	}
	if cfgWith("fig3", func(c *RunConfig) { c.Seed = 43 }).Key() == a {
		t.Fatal("seed not in the key")
	}
	if cfgWith("fig3", func(c *RunConfig) { c.Domains = 4 }).Key() == a {
		t.Fatal("domains not in the key")
	}
}
