package core

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// memStatsResult is one kernel's heap-allocator accounting.
type memStatsResult struct {
	Name string
	St   mem.BuddyStats
}

// MemStats surfaces the allocator fast path's counters for experiments
// that run a heap: per CARAT kernel, the interpreter heap's buddy
// statistics (allocs, frees, splits, coalesces, peak usage), plus a
// deterministic magazine-front-end demonstration showing the per-CPU
// cache hit rate under a churn workload. Behind the -memstats flag; not
// part of `interweave all` output.
func (s *Stack) MemStats() *Table {
	t := &Table{
		ID:     "memstats",
		Title:  "Allocator statistics: per-kernel heap buddy counters + magazine front-end",
		Header: []string{"kernel", "allocs", "frees", "splits", "coalesces", "peak used (KiB)", "failed", "live"},
	}
	suite := workloads.CARATSuite()
	for _, r := range runCells(s, "memstats", len(suite), func(i int) memStatsResult {
		return memStatsKernel(suite[i])
	}) {
		t.AddRow(r.Name, i64(int64(r.St.Allocs)), i64(int64(r.St.Frees)),
			i64(int64(r.St.Splits)), i64(int64(r.St.Coalesces)),
			i64(int64(r.St.PeakUsed)/1024), i64(int64(r.St.FailedAllocs)),
			i64(int64(r.St.Live)))
	}

	// Magazine demonstration: 8 simulated CPUs churn one shared zone
	// through the per-CPU cache, round-robin so the result is
	// deterministic at any host parallelism.
	cacheStats, zoneStats := magazineDemo(s.Seed)
	t.AddRow("magazine demo", i64(int64(cacheStats.Allocs)), i64(int64(cacheStats.Frees)),
		i64(int64(zoneStats.Splits)), i64(int64(zoneStats.Coalesces)),
		i64(int64(zoneStats.PeakUsed)/1024), i64(int64(zoneStats.FailedAllocs)),
		i64(int64(zoneStats.Live)))
	t.AddNote("kernel rows: the interpreter heap's intrusive buddy allocator (zero map ops, zero heap allocs steady-state)")
	t.AddNote(fmt.Sprintf("magazine demo: 8 simulated CPUs churning one zone through per-CPU magazines; "+
		"%.1f%%%% of allocations never touch the shared zone lock", cacheStats.HitRate()*100))
	return t
}

// memStatsKernel runs one kernel uninstrumented and snapshots its heap
// allocator counters.
func memStatsKernel(k workloads.IRKernel) memStatsResult {
	ip, err := interp.New(k.Build())
	if err != nil {
		panic(err)
	}
	if _, err := ip.Call(k.Entry); err != nil {
		panic(err)
	}
	return memStatsResult{Name: k.Name, St: ip.Heap.Buddy.Stats()}
}

// magazineDemo drives a deterministic churn workload through a CPUCache
// from 8 simulated CPUs (round-robin, single host thread) and returns
// the aggregate cache and zone counters.
func magazineDemo(seed uint64) (mem.CPUCacheStats, mem.BuddyStats) {
	const cpus = 8
	zone, err := mem.NewBuddy(0, 16<<20, 6)
	if err != nil {
		panic(err)
	}
	cache, err := mem.NewCPUCache(zone, cpus, 0)
	if err != nil {
		panic(err)
	}
	rngs := make([]*sim.RNG, cpus)
	held := make([][]mem.Addr, cpus)
	for c := 0; c < cpus; c++ {
		rngs[c] = sim.NewRNG(seed + uint64(c)*911)
	}
	sizes := [...]uint64{64, 256, 1024, 4096}
	for round := 0; round < 2000; round++ {
		for c := 0; c < cpus; c++ {
			if rngs[c].Intn(2) == 0 || len(held[c]) == 0 {
				a, err := cache.AllocOn(c, sizes[rngs[c].Intn(len(sizes))])
				if err != nil {
					panic(err)
				}
				held[c] = append(held[c], a)
			} else {
				i := rngs[c].Intn(len(held[c]))
				if err := cache.FreeOn(c, held[c][i]); err != nil {
					panic(err)
				}
				held[c][i] = held[c][len(held[c])-1]
				held[c] = held[c][:len(held[c])-1]
			}
		}
	}
	for c := 0; c < cpus; c++ {
		for _, a := range held[c] {
			if err := cache.FreeOn(c, a); err != nil {
				panic(err)
			}
		}
	}
	if err := cache.Drain(); err != nil {
		panic(err)
	}
	if err := zone.CheckInvariants(); err != nil {
		panic(err)
	}
	return cache.Stats(), zone.Stats()
}
