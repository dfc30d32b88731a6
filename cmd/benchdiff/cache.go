package main

// The -cache leg benchmarks the content-addressed result cache end to
// end on the experiment suite: an uncached reference run, a cold run
// populating a fresh cache, a warm run served from memory, a warm run
// through a fresh Cache over the same spill directory (a simulated
// process restart), and a coalescing leg proving K duplicate
// submissions of one key compute exactly once. Every cached leg's
// output must be byte-identical to the uncached reference; the tracked
// claims are that identity and the warm-vs-cold speedup.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// cacheBenchSuite lists the cached experiment configs: the CLI's
// default invocations, with memstats and the fig7 ablation riding on
// their parent experiments.
func cacheBenchSuite() []core.RunConfig {
	carat := core.DefaultRunConfig("carat")
	carat.MemStats = true
	fig7 := core.DefaultRunConfig("fig7")
	fig7.Ablate = true
	return []core.RunConfig{
		carat,
		core.DefaultRunConfig("virtine"),
		core.DefaultRunConfig("fig6"),
		core.DefaultRunConfig("fig3"),
		fig7,
	}
}

// runCacheSuite runs every config through a Runner on c (nil = no
// cache) and returns the concatenated table JSON plus the wall time.
func runCacheSuite(c *cache.Cache) (string, time.Duration, error) {
	var b strings.Builder
	r := &core.Runner{Cache: c}
	start := time.Now()
	for _, cfg := range cacheBenchSuite() {
		tables, _, err := r.Run(context.Background(), cfg, nil)
		if err != nil {
			return "", 0, err
		}
		for _, t := range tables {
			b.WriteString(t.JSON())
		}
	}
	return b.String(), time.Since(start), nil
}

// coalescedLeg submits K duplicate computations of one RunConfig key
// and reports the compute count (the exactly-once claim) and the wall
// time for all K callers.
func coalescedLeg() (callers int, computes uint64, wall time.Duration, err error) {
	const K = 32
	c := cache.New(cache.Config{})
	cfg := core.DefaultRunConfig("carat")
	cfg.MemStats = true
	key := cfg.Key()
	errs := make([]error, K)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrComputeCtx(context.Background(), key, func() ([]byte, error) {
				// A real compute: one full MemStats regeneration, uncached.
				return []byte(core.NewStack(1).MemStats().JSON()), nil
			})
		}(i)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, e
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		return 0, 0, 0, fmt.Errorf("coalesced leg: %d computes for %d duplicate callers, want exactly 1", st.Computes, K)
	}
	return K, st.Computes, wall, nil
}

type cacheLeg struct {
	WallMs    float64 `json:"wall_ms"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	SpillHits uint64  `json:"spill_hits"`
	Computes  uint64  `json:"computes"`
}

type cacheReport struct {
	Uncached          cacheLeg `json:"uncached"`
	Cold              cacheLeg `json:"cold"`
	WarmMem           cacheLeg `json:"warm_mem"`
	WarmDisk          cacheLeg `json:"warm_disk"`
	SpeedupWarmMem    float64  `json:"speedup_warm_mem_vs_cold"`
	SpeedupWarmDisk   float64  `json:"speedup_warm_disk_vs_cold"`
	CoalescedCallers  int      `json:"coalesced_callers"`
	CoalescedComputes uint64   `json:"coalesced_computes"`
	CoalescedWallMs   float64  `json:"coalesced_wall_ms"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	CPU               string   `json:"cpu,omitempty"`
	Note              string   `json:"note"`
}

// legStats converts a Stats delta into the recorded leg counters.
func legStats(wall time.Duration, before, after cache.Stats) cacheLeg {
	return cacheLeg{
		WallMs:    round2(float64(wall.Microseconds()) / 1e3),
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		SpillHits: after.SpillHits - before.SpillHits,
		Computes:  after.Computes - before.Computes,
	}
}

func runCacheBench(out string) error {
	dir, err := os.MkdirTemp("", "benchdiff-cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("bench cache uncached...")
	base, baseT, err := runCacheSuite(nil)
	if err != nil {
		return err
	}
	fmt.Printf(" %7.0f ms   cold...", float64(baseT.Microseconds())/1e3)

	c1 := cache.New(cache.Config{Dir: dir})
	cold, coldT, err := runCacheSuite(c1)
	if err != nil {
		return err
	}
	coldSt := c1.Stats()
	if cold != base {
		return fmt.Errorf("cache bench: cold cached output differs from uncached")
	}
	fmt.Printf(" %7.0f ms   warm-mem...", float64(coldT.Microseconds())/1e3)

	warm, warmT, err := runCacheSuite(c1)
	if err != nil {
		return err
	}
	warmSt := c1.Stats()
	if warm != base {
		return fmt.Errorf("cache bench: warm (memory) output differs from uncached")
	}
	fmt.Printf(" %7.0f ms   warm-disk...", float64(warmT.Microseconds())/1e3)

	// Process restart: a fresh Cache over the same spill directory.
	c2 := cache.New(cache.Config{Dir: dir})
	disk, diskT, err := runCacheSuite(c2)
	if err != nil {
		return err
	}
	diskSt := c2.Stats()
	if disk != base {
		return fmt.Errorf("cache bench: warm (disk restart) output differs from uncached")
	}
	if diskSt.SpillHits == 0 {
		return fmt.Errorf("cache bench: restart leg never read the spill tier")
	}
	fmt.Printf(" %7.0f ms\n", float64(diskT.Microseconds())/1e3)

	callers, computes, coWall, err := coalescedLeg()
	if err != nil {
		return err
	}

	rep := cacheReport{
		Uncached:          cacheLeg{WallMs: round2(float64(baseT.Microseconds()) / 1e3)},
		Cold:              legStats(coldT, cache.Stats{}, coldSt),
		WarmMem:           legStats(warmT, coldSt, warmSt),
		WarmDisk:          legStats(diskT, cache.Stats{}, diskSt),
		SpeedupWarmMem:    round2(float64(coldT) / float64(warmT)),
		SpeedupWarmDisk:   round2(float64(coldT) / float64(diskT)),
		CoalescedCallers:  callers,
		CoalescedComputes: computes,
		CoalescedWallMs:   round2(float64(coWall.Microseconds()) / 1e3),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Note: "wall-clock ms are machine-dependent; hit, miss and compute counts are per " +
			"table set (one cache entry per RunConfig); the tracked claims are byte-identical " +
			"output on every cached leg, warm-vs-cold speedup >= 5x, and exactly one compute " +
			"for the coalesced duplicate callers",
	}
	// Carry the host CPU tag forward from an existing file.
	if prev, err := os.ReadFile(out); err == nil {
		var old cacheReport
		if json.Unmarshal(prev, &old) == nil {
			rep.CPU = old.CPU
		}
	}
	fmt.Printf("cache speedup warm-mem %.2fx, warm-disk %.2fx; coalesced %d callers -> %d compute in %.1f ms\n",
		rep.SpeedupWarmMem, rep.SpeedupWarmDisk, callers, computes, rep.CoalescedWallMs)
	if rep.SpeedupWarmMem < 5 {
		return fmt.Errorf("cache bench: warm-vs-cold speedup %.2fx below the 5x claim", rep.SpeedupWarmMem)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
