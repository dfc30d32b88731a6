package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
// cache paths. gated marks the CLI's default runs, whose summed cold
// and warm wall times the warm-cache speedup gate compares. serial
// marks a plain form that a later config extends with sub-reports: that
// config's cold miss also stores the plain form's table, so the plain
// config runs alone, before the rest, and its cold leg still computes.
var cachedConfigs = []struct {
	name                string
	cfg                 RunConfig
	slow, gated, serial bool
}{
	{"fig3", DefaultRunConfig("fig3"), true, true, false},
	{"carat", DefaultRunConfig("carat"), false, false, true},
	{"fig7-ablation", cfgWith("fig7", func(c *RunConfig) { c.Ablate = true }), true, true, false},
	{"virtine", DefaultRunConfig("virtine"), false, true, false},
	{"memstats", cfgWith("carat", func(c *RunConfig) { c.MemStats = true }), false, true, false},
	{"fig6", DefaultRunConfig("fig6"), false, true, false},
}

// minWarmSpeedup is the result cache's performance claim: over the
// gated configs, a warm (memory) run takes at most a fifth of the wall
// time of the cold run that filled the cache.
const minWarmSpeedup = 5

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
// Once every config has run, the summed warm wall time over the gated
// configs must be at most 1/minWarmSpeedup of the summed cold time; the
// gate needs the slow configs, so it is off where they are skipped.
func TestCachedRunsByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	shared := cache.New(cache.Config{Dir: dir})
	restarted := cache.New(cache.Config{Dir: dir})
	var mu sync.Mutex
	var cold, warm time.Duration
	// Cleanups run after the parallel subtests finish.
	t.Cleanup(func() {
		if raceEnabled || testing.Short() || t.Failed() {
			return
		}
		speedup := float64(cold) / float64(warm)
		t.Logf("warm-vs-cold speedup %.0fx (cold %v, warm %v)", speedup, cold, warm)
		if speedup < minWarmSpeedup {
			t.Errorf("warm-vs-cold speedup %.2fx (cold %v, warm %v), want >= %dx",
				speedup, cold, warm, minWarmSpeedup)
		}
	})
	for _, tc := range cachedConfigs {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.serial {
				t.Parallel()
			}
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
				start := time.Now()
				got, src := runRendered(t, leg.r, tc.cfg)
				if el := time.Since(start); tc.gated {
					mu.Lock()
					switch leg.src {
					case cache.SourceComputed:
						cold += el
					case cache.SourceMem:
						warm += el
					}
					mu.Unlock()
				}
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

// BenchmarkCachedSuite times one op = the gated configs through
// Runner.Run, per cache leg as BENCH_cache.json records them: uncached,
// cold (a fresh cache and spill directory each op), warm from memory,
// and warm from the spill tier (a fresh Cache over a filled directory
// each op, a simulated restart). cold/warm_mem is the speedup
// TestCachedRunsByteIdentical gates.
func BenchmarkCachedSuite(b *testing.B) {
	run := func(b *testing.B, c *cache.Cache) {
		r := &Runner{Cache: c}
		for _, tc := range cachedConfigs {
			if !tc.gated {
				continue
			}
			if _, _, err := r.Run(context.Background(), tc.cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	dir := b.TempDir()
	filled := cache.New(cache.Config{Dir: dir})
	run(b, filled)
	for _, leg := range []struct {
		name  string
		cache func(b *testing.B) *cache.Cache
	}{
		{"uncached", func(*testing.B) *cache.Cache { return nil }},
		{"cold", func(b *testing.B) *cache.Cache { return cache.New(cache.Config{Dir: b.TempDir()}) }},
		{"warm_mem", func(*testing.B) *cache.Cache { return filled }},
		{"warm_disk", func(*testing.B) *cache.Cache { return cache.New(cache.Config{Dir: dir}) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := leg.cache(b)
				b.StartTimer()
				run(b, c)
			}
		})
	}
}

// TestOverlappingConfigsByteIdentical runs a config whose tables extend
// an already-cached config's (carat then carat+mobility, fig6 then
// fig6+EPCC) through one cached Runner. The second config has its own
// key, so it is computed: its sub-reports are generated after the
// first config's cached table, and its bytes equal its uncached run.
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

// TestCachedTablesFaultStoresNothing pins the retry rule: a generator
// that panics leaves nothing in the cache, the next call on the key
// recomputes, and only a completed table set is stored and served
// after that.
func TestCachedTablesFaultStoresNothing(t *testing.T) {
	t.Parallel()
	c := cache.New(cache.Config{})
	key := cache.NewEnc().Str("test", "fault-stores-nothing").Sum()
	fault := errors.New("boom")
	func() {
		defer func() {
			if r := recover(); r != fault {
				t.Fatalf("recovered %v, want the generator's panic", r)
			}
		}()
		CachedTablesCtx(context.Background(), c, key, func() []*Table { panic(fault) })
		t.Fatal("faulting generator returned")
	}()
	if st := c.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("faulted compute stored something: %+v", st)
	}
	want := &Table{ID: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	runs := 0
	gen := func() []*Table { runs++; return []*Table{want} }
	for _, src := range []cache.Source{cache.SourceComputed, cache.SourceMem} {
		ts, got, err := CachedTablesCtx(context.Background(), c, key, gen)
		if err != nil || got != src || len(ts) != 1 || ts[0].Digest() != want.Digest() {
			t.Fatalf("after fault: src %v (want %v), err %v, tables %v", got, src, err, ts)
		}
	}
	if runs != 1 {
		t.Fatalf("generator ran %d times after the fault, want 1", runs)
	}
}

// TestBuildStampMismatchIsMiss pins the persisted cache's build check
// with two injected identities: a table set written to disk under one
// is a miss under the other, neither counted as served from disk nor
// promoted, and a hit under its own after a simulated restart. Through
// CachedTablesCtx, an entry another build stamped is recomputed and
// overwritten, and BuildIdentity is stable in-process.
func TestBuildStampMismatchIsMiss(t *testing.T) {
	t.Parallel()
	if id := BuildIdentity(); id == "" || id != BuildIdentity() {
		t.Fatalf("BuildIdentity %q empty or unstable", id)
	}
	// A test binary carries no VCS stamp, so on ELF it is named by its
	// build ID note; a file that is not ELF has no note.
	if exe, err := os.Executable(); err == nil && runtime.GOOS == "linux" {
		if id, err := elfBuildID(exe); err != nil || BuildIdentity() != "buildid:"+id {
			t.Errorf("BuildIdentity %q, ELF note %q (%v)", BuildIdentity(), id, err)
		}
	}
	notELF := filepath.Join(t.TempDir(), "not-elf")
	if err := os.WriteFile(notELF, []byte("#!/bin/sh\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if id, err := elfBuildID(notELF); err == nil {
		t.Errorf("a shell script has build ID %q", id)
	}
	dir := t.TempDir()
	key := cache.NewEnc().Str("test", "build-stamp").Sum()
	want := &Table{ID: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	cache.New(cache.Config{Dir: dir}).Put(key, encodeTables([]*Table{want}, "build-a"))

	under := func(build string) func([]byte) bool {
		return func(b []byte) bool {
			ts, ok := decodeTables(b, build)
			return ok && len(ts) == 1 && ts[0].Digest() == want.Digest()
		}
	}
	c := cache.New(cache.Config{Dir: dir})
	if _, _, ok := c.Get(key, under("build-b")); ok {
		t.Fatal("an entry written under build-a was served to build-b")
	}
	if st := c.Stats(); st.SpillHits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("a rejected entry was counted or promoted: %+v", st)
	}
	if _, src, ok := c.Get(key, under("build-a")); !ok || src != cache.SourceDisk {
		t.Fatalf("restart read under build-a: ok %v, source %v", ok, src)
	}

	runs := 0
	gen := func() []*Table { runs++; return []*Table{want} }
	for _, wantSrc := range []cache.Source{cache.SourceComputed, cache.SourceDisk} {
		_, got, err := CachedTablesCtx(context.Background(), cache.New(cache.Config{Dir: dir}), key, gen)
		if err != nil || got != wantSrc {
			t.Fatalf("source %v (err %v), want %v", got, err, wantSrc)
		}
	}
	if runs != 1 {
		t.Fatalf("generator ran %d times, want 1 (the stale entry, then this build's)", runs)
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
	// the same shared cache must not hit any of its entries. nautilus
	// arms the machines its heartbeat runtimes use and completes at
	// chaos seed 9 (the digest manifest pins its tables there).
	c := cache.New(cache.Config{})
	r := &Runner{Cache: c}
	run := func(id string, chaosSeed uint64) {
		if _, _, err := r.Run(context.Background(), cfgWith(id, func(c *RunConfig) { c.ChaosSeed = chaosSeed }), nil); err != nil {
			t.Fatal(err)
		}
	}
	run("nautilus", 0)
	st := c.Stats()
	run("nautilus", 9)
	st2 := c.Stats()
	if st2.Hits != st.Hits {
		t.Fatalf("chaos-armed run hit clean entries: %+v -> %+v", st, st2)
	}
	if st2.Puts <= st.Puts {
		t.Fatal("chaos-armed run computed nothing (keys aliased)")
	}
	// carat builds no machine, so no plan can reach it: its armed run
	// is the clean result, served from the clean entry.
	run("carat", 0)
	st = c.Stats()
	run("carat", 9)
	if st2 = c.Stats(); st2.Hits != st.Hits+1 || st2.Puts != st.Puts {
		t.Fatalf("armed carat run recomputed its clean result: %+v -> %+v", st, st2)
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

// TestKeyIsCoordinates pins that RunConfig.Key is a function of the
// result coordinates alone: a field the experiment reads moves the key,
// one it does not read leaves it, and no code-version input reaches it
// (the literal below moves with any such input, as it would with any
// change to the key's encoding). Pool width lives on Runner, so it
// cannot reach the key.
func TestKeyIsCoordinates(t *testing.T) {
	t.Parallel()
	a := DefaultRunConfig("fig3").Key()
	if got, want := a.String(), "a254ef8ed03e09fb84befeaab80ce118aa5c1b7087bc6b0fb5f2bd7761c10916"; got != want {
		t.Fatalf("fig3 default key %s, want %s", got, want)
	}
	if DefaultRunConfig("fig3").Key() != a {
		t.Fatal("Key unstable for identical configs")
	}
	if DefaultRunConfig("fig4").Key() == a {
		t.Fatal("experiment id not in the key")
	}
	if cfgWith("fig3", func(c *RunConfig) { c.CPUs = 32 }).Key() != a {
		t.Fatal("cpus in fig3's key, though fig3 does not read it")
	}
	if cfgWith("tasks", func(c *RunConfig) { c.CPUs = 32 }).Key() == DefaultRunConfig("tasks").Key() {
		t.Fatal("cpus not in the key")
	}
	if cfgWith("fig3", func(c *RunConfig) { c.Seed = 43 }).Key() == a {
		t.Fatal("seed not in the key")
	}
	if cfgWith("fig3", func(c *RunConfig) { c.Domains = 4 }).Key() == a {
		t.Fatal("domains not in the key")
	}
}

// TestCancelledRunsReturnNoTables checks that a run whose context is
// already cancelled returns context.Canceled, no tables and no cache
// entry, for every experiment's default config with and without the
// sub-reports `interweave all` adds, uncached and through a cache.
// Most drivers have no cell loop, so only generate's own checks stop
// them. Then a fig6 -epcc run is cancelled as its last Fig6 cell
// completes: the Fig6 table is done, and the run must still stop
// before the EPCC drivers.
func TestCancelledRunsReturnNoTables(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := cache.New(cache.Config{})
	for _, id := range ExperimentIDs() {
		for _, cfg := range []RunConfig{DefaultRunConfig(id), DefaultRunConfig(id).WithAll()} {
			for _, r := range []*Runner{{Parallel: 1}, {Parallel: 1, Cache: c}} {
				tables, _, err := r.Run(ctx, cfg, nil)
				if !errors.Is(err, context.Canceled) || tables != nil {
					t.Errorf("%s (flags %b, cached %t): %d tables, err %v; want none and context.Canceled",
						id, cfg.flags(), r.Cache != nil, len(tables), err)
				}
			}
		}
	}
	if st := c.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Errorf("cancelled runs stored %d entries (%d resident)", st.Puts, st.Entries)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg := cfgWith("fig6", func(c *RunConfig) { c.EPCC = true })
	tables, _, err := (&Runner{Parallel: 1}).Run(ctx, cfg, func(e CellEvent) {
		if e.Driver == "fig6" && e.Cell == e.Of-1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || tables != nil {
		t.Errorf("fig6 -epcc cancelled after Fig6: %d tables, err %v; want none and context.Canceled", len(tables), err)
	}
}
