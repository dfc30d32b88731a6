package mem

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/sim"
)

// The allocator benchmarks BENCH_mem.json records: single-core alloc,
// free and churn on the intrusive Buddy and on the ReferenceBuddy
// oracle, and eight goroutines contending for one zone through the
// CPUCache magazines or through one mutex.

const (
	benchRegion   = uint64(64 << 20)
	benchMinOrder = uint(6)
)

// BenchmarkBuddy runs each single-core workload on both engines, as
// BenchmarkBuddy/<workload>/<engine>.
func BenchmarkBuddy(b *testing.B) {
	for _, w := range []struct {
		name string
		run  func(*testing.B, allocator)
	}{
		{"alloc", benchAlloc},
		{"free", benchFree},
		{"churn", benchChurn},
	} {
		for _, engine := range []string{"fast", "reference"} {
			b.Run(w.name+"/"+engine, func(b *testing.B) {
				var a allocator
				var err error
				if engine == "reference" {
					a, err = NewReferenceBuddy(0x10000, benchRegion, benchMinOrder)
				} else {
					a, err = NewBuddy(0x10000, benchRegion, benchMinOrder)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				w.run(b, a)
			})
		}
	}
}

// benchAlloc measures pure allocation: blocks accumulate into a
// pre-sized slot array; when the window fills, the timer stops while it
// drains.
func benchAlloc(b *testing.B, a allocator) {
	const window = 1 << 16
	slots := make([]Addr, 0, window)
	drain := func() {
		for _, p := range slots {
			if err := a.Free(p); err != nil {
				b.Fatal(err)
			}
		}
		slots = slots[:0]
	}
	// Warm-up: materialize the metadata pages the window will touch.
	for i := 0; i < window; i++ {
		p, err := a.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		slots = append(slots, p)
	}
	drain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(slots) == window {
			b.StopTimer()
			drain()
			b.StartTimer()
		}
		p, err := a.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		slots = append(slots, p)
	}
}

// benchFree measures pure frees: the timer stops while a batch is
// re-allocated.
func benchFree(b *testing.B, a allocator) {
	const window = 1 << 16
	slots := make([]Addr, 0, window)
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
}

// benchChurn measures a mixed workload: each op is one allocation of a
// varied size plus one free of a random live block, the split/coalesce
// pattern a kernel heap sees.
func benchChurn(b *testing.B, a allocator) {
	rng := sim.NewRNG(42)
	const live = 1024
	slots := make([]Addr, 0, live)
	sizes := [...]uint64{64, 192, 512, 1024, 3000, 4096}
	for len(slots) < live {
		p, err := a.Alloc(sizes[rng.Intn(len(sizes))])
		if err != nil {
			b.Fatal(err)
		}
		slots = append(slots, p)
	}
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
}

// BenchmarkContended runs eight goroutines of churn against one zone,
// first through the CPUCache magazines, then through a single mutex
// over the raw buddy (the sharing discipline the magazines replace).
// An op is one churn step of one goroutine, so ns/op is the inverse of
// aggregate throughput, and mutex ns/op over magazines ns/op is the
// contended speedup. The magazine leg reports its hit rate.
func BenchmarkContended(b *testing.B) {
	const cpus = 8
	newZone := func(b *testing.B) *Buddy {
		zone, err := NewBuddy(0, benchRegion, benchMinOrder)
		if err != nil {
			b.Fatal(err)
		}
		return zone
	}
	b.Run("magazines", func(b *testing.B) {
		c, err := NewCPUCache(newZone(b), cpus, 0)
		if err != nil {
			b.Fatal(err)
		}
		runContended(b, cpus, c.AllocOn, c.FreeOn)
		b.ReportMetric(c.Stats().HitRate(), "hit-rate")
	})
	b.Run("mutex", func(b *testing.B) {
		zone := newZone(b)
		var mu sync.Mutex
		runContended(b, cpus,
			func(_ int, n uint64) (Addr, error) {
				mu.Lock()
				defer mu.Unlock()
				return zone.Alloc(n)
			},
			func(_ int, a Addr) error {
				mu.Lock()
				defer mu.Unlock()
				return zone.Free(a)
			})
	})
}

// runContended splits b.N churn steps over cpus goroutines, each
// running churnWorker through alloc and free.
func runContended(b *testing.B, cpus int, alloc func(int, uint64) (Addr, error), free func(int, Addr) error) {
	ops := (b.N + cpus - 1) / cpus
	errs := make([]error, cpus)
	var wg sync.WaitGroup
	b.ResetTimer()
	for cpu := 0; cpu < cpus; cpu++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[cpu] = churnWorker(cpu, ops, alloc, free)
		}()
	}
	wg.Wait()
	b.StopTimer()
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}
}

// churnWorker runs ops churn steps on behalf of cpu: it fills a window
// of live blocks, then frees a random one and allocates a new one per
// step, and frees everything at the end.
func churnWorker(cpu, ops int, alloc func(int, uint64) (Addr, error), free func(int, Addr) error) error {
	rng := sim.NewRNG(uint64(cpu)*6151 + 11)
	sizes := [...]uint64{64, 192, 512, 1024}
	const live = 256
	slots := make([]Addr, 0, live)
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
