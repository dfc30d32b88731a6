package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The allocator microbenches run against both engines through this
// surface (the package-level interface the two engines share).
type allocator interface {
	Alloc(n uint64) (mem.Addr, error)
	Free(a mem.Addr) error
}

const (
	memRegion   = uint64(64 << 20) // per-bench buddy region
	memMinOrder = uint(6)
)

func newEngine(reference bool) allocator {
	if reference {
		b, err := mem.NewReferenceBuddy(0x10000, memRegion, memMinOrder)
		if err != nil {
			panic(err)
		}
		return b
	}
	b, err := mem.NewBuddy(0x10000, memRegion, memMinOrder)
	if err != nil {
		panic(err)
	}
	return b
}

// benchMemAlloc measures pure allocation: blocks accumulate into a
// pre-sized slot array; when the window fills, the timer stops while it
// drains.
func benchMemAlloc(reference bool) entry {
	r := testing.Benchmark(func(b *testing.B) {
		a := newEngine(reference)
		const window = 1 << 16
		slots := make([]mem.Addr, 0, window)
		// Warm-up: materialize metadata pages the window will touch.
		for i := 0; i < window; i++ {
			p, err := a.Alloc(64)
			if err != nil {
				b.Fatal(err)
			}
			slots = append(slots, p)
		}
		for _, p := range slots {
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
		slots = slots[:0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(slots) == window {
				b.StopTimer()
				for _, p := range slots {
					if err := a.Free(p); err != nil {
						b.Fatal(err)
					}
				}
				slots = slots[:0]
				b.StartTimer()
			}
			p, err := a.Alloc(64)
			if err != nil {
				b.Fatal(err)
			}
			slots = append(slots, p)
		}
	})
	return entry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// benchMemFree measures pure frees: the timer stops while a batch is
// re-allocated.
func benchMemFree(reference bool) entry {
	r := testing.Benchmark(func(b *testing.B) {
		a := newEngine(reference)
		const window = 1 << 16
		slots := make([]mem.Addr, 0, window)
		fill := func() {
			for len(slots) < window {
				p, err := a.Alloc(64)
				if err != nil {
					b.Fatal(err)
				}
				slots = append(slots, p)
			}
		}
		fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(slots) == 0 {
				b.StopTimer()
				fill()
				b.StartTimer()
			}
			p := slots[len(slots)-1]
			slots = slots[:len(slots)-1]
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	return entry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// benchMemChurn measures a mixed workload: each op is one allocation of
// a varied size plus one free of a random live block, the split/coalesce
// pattern a kernel heap sees.
func benchMemChurn(reference bool) entry {
	r := testing.Benchmark(func(b *testing.B) {
		a := newEngine(reference)
		rng := sim.NewRNG(42)
		const live = 1024
		slots := make([]mem.Addr, 0, live)
		sizes := [...]uint64{64, 192, 512, 1024, 3000, 4096}
		for len(slots) < live {
			p, err := a.Alloc(sizes[rng.Intn(len(sizes))])
			if err != nil {
				b.Fatal(err)
			}
			slots = append(slots, p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := rng.Intn(live)
			if err := a.Free(slots[j]); err != nil {
				b.Fatal(err)
			}
			p, err := a.Alloc(sizes[rng.Intn(len(sizes))])
			if err != nil {
				b.Fatal(err)
			}
			slots[j] = p
		}
	})
	return entry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// contended is the N-core result block: one shared zone hammered by
// simulated CPUs through the magazine cache versus through a plain
// mutex around the raw buddy.
type contended struct {
	CPUs           int     `json:"cpus"`
	OpsPerCPU      int     `json:"ops_per_cpu"`
	CacheOpsPerSec float64 `json:"cache_ops_per_sec"`
	MutexOpsPerSec float64 `json:"mutex_ops_per_sec"`
	Speedup        float64 `json:"speedup"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
}

// churnWorker runs ops churn operations on behalf of cpu, through the
// given alloc/free pair.
func churnWorker(cpu, ops int, alloc func(int, uint64) (mem.Addr, error), free func(int, mem.Addr) error) error {
	rng := sim.NewRNG(uint64(cpu)*6151 + 11)
	sizes := [...]uint64{64, 192, 512, 1024}
	const live = 256
	slots := make([]mem.Addr, 0, live)
	for i := 0; i < ops; i++ {
		if len(slots) < live {
			p, err := alloc(cpu, sizes[rng.Intn(len(sizes))])
			if err != nil {
				return err
			}
			slots = append(slots, p)
			continue
		}
		j := rng.Intn(live)
		if err := free(cpu, slots[j]); err != nil {
			return err
		}
		p, err := alloc(cpu, sizes[rng.Intn(len(sizes))])
		if err != nil {
			return err
		}
		slots[j] = p
	}
	for _, p := range slots {
		if err := free(cpu, p); err != nil {
			return err
		}
	}
	return nil
}

// benchContended times cpus goroutines running a fixed churn workload
// against one zone, first through the CPUCache magazines, then through a
// single mutex over the raw buddy (the sharing discipline the magazines
// replace).
func benchContended(cpus, opsPerCPU int) (contended, error) {
	run := func(alloc func(int, uint64) (mem.Addr, error), free func(int, mem.Addr) error) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, cpus)
		start := time.Now()
		for cpu := 0; cpu < cpus; cpu++ {
			cpu := cpu
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[cpu] = churnWorker(cpu, opsPerCPU, alloc, free)
			}()
		}
		wg.Wait()
		el := time.Since(start)
		for _, e := range errs {
			if e != nil {
				return 0, e
			}
		}
		return el, nil
	}

	// Magazine-cache front-end.
	zone, err := mem.NewBuddy(0, memRegion, memMinOrder)
	if err != nil {
		return contended{}, err
	}
	cache, err := mem.NewCPUCache(zone, cpus, 0)
	if err != nil {
		return contended{}, err
	}
	cacheTime, err := run(cache.AllocOn, cache.FreeOn)
	if err != nil {
		return contended{}, err
	}
	hitRate := cache.Stats().HitRate()

	// Mutex-only sharing of the same buddy design.
	mzone, err := mem.NewBuddy(0, memRegion, memMinOrder)
	if err != nil {
		return contended{}, err
	}
	var mu sync.Mutex
	mutexTime, err := run(
		func(_ int, n uint64) (mem.Addr, error) {
			mu.Lock()
			defer mu.Unlock()
			return mzone.Alloc(n)
		},
		func(_ int, a mem.Addr) error {
			mu.Lock()
			defer mu.Unlock()
			return mzone.Free(a)
		})
	if err != nil {
		return contended{}, err
	}

	totalOps := float64(cpus * opsPerCPU)
	return contended{
		CPUs:           cpus,
		OpsPerCPU:      opsPerCPU,
		CacheOpsPerSec: round2(totalOps / cacheTime.Seconds()),
		MutexOpsPerSec: round2(totalOps / mutexTime.Seconds()),
		Speedup:        round2(mutexTime.Seconds() / cacheTime.Seconds()),
		CacheHitRate:   round2(hitRate),
	}, nil
}

type memReport struct {
	Fast                map[string]entry `json:"fast"`
	Reference           map[string]entry `json:"reference"`
	GeomeanSpeedupVsRef float64          `json:"geomean_speedup_vs_reference"`
	Contended           contended        `json:"contended"`
	Note                string           `json:"note"`
}

// runMem benchmarks the allocator fast path (BENCH_mem.json): single-core
// alloc/free/churn on the intrusive Buddy vs the map-based
// ReferenceBuddy, plus the contended magazine-vs-mutex aggregate.
func runMem(out string) error {
	rep := memReport{
		Fast:      make(map[string]entry),
		Reference: make(map[string]entry),
		Note: "ns_per_op are machine-dependent; the tracked claims are the geomean, " +
			"the contended speedup, and fast-path allocs_per_op",
	}
	benches := []struct {
		name string
		fn   func(bool) entry
	}{
		{"alloc", benchMemAlloc},
		{"free", benchMemFree},
		{"churn", benchMemChurn},
	}
	for _, bm := range benches {
		fmt.Printf("bench mem/%-6s fast...", bm.name)
		rep.Fast[bm.name] = bm.fn(false)
		fmt.Printf(" %6d ns/op %2d allocs/op   reference...",
			rep.Fast[bm.name].NsPerOp, rep.Fast[bm.name].AllocsPerOp)
		rep.Reference[bm.name] = bm.fn(true)
		fmt.Printf(" %6d ns/op\n", rep.Reference[bm.name].NsPerOp)
	}
	rep.GeomeanSpeedupVsRef = round2(geomean(rep.Reference, rep.Fast))

	fmt.Printf("bench mem contended (8 cpus, magazines vs mutex)...")
	ct, err := benchContended(8, 200_000)
	if err != nil {
		return err
	}
	rep.Contended = ct
	fmt.Printf(" %.2fx (hit rate %.0f%%)\n", ct.Speedup, ct.CacheHitRate*100)
	fmt.Printf("geomean single-core speedup vs reference engine: %.2fx\n", rep.GeomeanSpeedupVsRef)

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
