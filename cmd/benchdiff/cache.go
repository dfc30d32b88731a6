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
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
)

// cacheBenchDriver is one experiment generator, on the stack the
// interweave CLI builds for it.
type cacheBenchDriver struct {
	name  string
	stack func() *core.Stack
	gen   func(s *core.Stack) *core.Table
}

// cacheBenchSuite lists the cached experiment drivers.
func cacheBenchSuite() []cacheBenchDriver {
	fig3 := core.DefaultFig3Config()
	fig6 := core.DefaultFig6Config()
	return []cacheBenchDriver{
		{"carat", func() *core.Stack { return core.NewStack(1) }, (*core.Stack).CARAT},
		{"memstats", func() *core.Stack { return core.NewStack(1) }, (*core.Stack).MemStats},
		{"virtine", func() *core.Stack { return core.NewStack(1) }, (*core.Stack).Virtines},
		{"fig6", func() *core.Stack { return core.KNLStack(1) }, func(s *core.Stack) *core.Table { return s.Fig6(fig6) }},
		{"fig3", func() *core.Stack { return core.NewStack(16) }, func(s *core.Stack) *core.Table { return s.Fig3(fig3) }},
		{"fig7", core.ServerStack, (*core.Stack).Fig7},
		{"fig7-ablation", core.ServerStack, (*core.Stack).AblationSharingClasses},
	}
}

// runCacheSuite regenerates every driver's table against c (nil = no
// cache) and returns the concatenated JSON plus the wall time.
func runCacheSuite(c *cache.Cache) (string, time.Duration) {
	var b strings.Builder
	start := time.Now()
	for _, d := range cacheBenchSuite() {
		s := d.stack()
		s.Cache = c
		b.WriteString(d.gen(s).JSON())
	}
	return b.String(), time.Since(start)
}

// coalescedLeg submits K duplicate computations of one key through a
// width-4 pool and reports the compute count (the exactly-once claim)
// and the wall time for all K callers.
func coalescedLeg() (callers int, computes uint64, wall time.Duration, err error) {
	const K = 32
	c := cache.New(cache.Config{})
	p := exp.New(4)
	key := core.NewStack(1).KeyEnc("benchdiff-coalesce").Sum()
	errs := make([]error, K)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetOrCompute(key, p, false, func() ([]byte, error) {
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
	base, baseT := runCacheSuite(nil)
	fmt.Printf(" %7.0f ms   cold...", float64(baseT.Microseconds())/1e3)

	c1 := cache.New(cache.Config{Dir: dir})
	cold, coldT := runCacheSuite(c1)
	coldSt := c1.Stats()
	if cold != base {
		return fmt.Errorf("cache bench: cold cached output differs from uncached")
	}
	fmt.Printf(" %7.0f ms   warm-mem...", float64(coldT.Microseconds())/1e3)

	warm, warmT := runCacheSuite(c1)
	warmSt := c1.Stats()
	if warm != base {
		return fmt.Errorf("cache bench: warm (memory) output differs from uncached")
	}
	fmt.Printf(" %7.0f ms   warm-disk...", float64(warmT.Microseconds())/1e3)

	// Process restart: a fresh Cache over the same spill directory.
	c2 := cache.New(cache.Config{Dir: dir})
	disk, diskT := runCacheSuite(c2)
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
		Note: "wall-clock ms are machine-dependent; the tracked claims are byte-identical " +
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
