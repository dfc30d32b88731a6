package core

import (
	"fmt"

	"repro/internal/carat"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/passes"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// caratResult is one kernel's measurement.
type caratResult struct {
	Name              string
	BaseCycles        int64
	NaiveCycles       int64
	HoistedCycles     int64
	ElimCycles        int64
	OptCycles         int64
	NaiveGuards       int64
	HoistedGuards     int64
	ElimGuards        int64
	NaiveOverhead     float64
	HoistedOverhead   float64
	ElimOverhead      float64
	OptOverhead       float64
	BaseRegs          int
	OptRegs           int
	SemanticsVerified bool
}

// CARAT regenerates the §IV-A overhead result: for each benchmark
// kernel, total cycles without instrumentation, with naive per-access
// guards, with compiler-hoisted guards, with the dataflow layer's
// guard elimination on top of hoisting, and with the full
// analysis-driven optimizer (passes.Optimize) composed under the same
// instrumentation; the paper's claim is that compiler analysis brings
// the geomean overhead under 6%.
func (s *Stack) CARAT() *Table {
	t := &Table{
		ID:     "carat",
		Title:  "CARAT overhead: naive vs hoisted vs analysis-eliminated guards",
		Header: []string{"kernel", "base (Kcyc)", "naive ovh", "hoisted ovh", "elim ovh", "opt ovh", "guards naive", "guards hoisted", "guards elim", "frame regs", "ok"},
	}
	suite := workloads.CARATSuite()
	var naiveOvh, hoistOvh, elimOvh, optOvh []float64
	// One cell per kernel: each cell runs the kernel's base, naive,
	// hoisted, eliminated, and optimized configurations on its own
	// interpreter instances.
	for _, r := range runCells(s, "carat", len(suite), func(i int) caratResult {
		return s.caratKernel(suite[i])
	}) {
		naiveOvh = append(naiveOvh, 1+r.NaiveOverhead)
		hoistOvh = append(hoistOvh, 1+r.HoistedOverhead)
		elimOvh = append(elimOvh, 1+r.ElimOverhead)
		optOvh = append(optOvh, 1+r.OptOverhead)
		ok := "yes"
		if !r.SemanticsVerified {
			ok = "NO"
		}
		t.AddRow(r.Name, f1(float64(r.BaseCycles)/1e3), pct(r.NaiveOverhead),
			pct(r.HoistedOverhead), pct(r.ElimOverhead), pct(r.OptOverhead),
			i64(r.NaiveGuards), i64(r.HoistedGuards), i64(r.ElimGuards),
			fmt.Sprintf("%d->%d", r.BaseRegs, r.OptRegs), ok)
	}
	t.AddRow("geomean", "", pct(stats.GeoMean(naiveOvh)-1), pct(stats.GeoMean(hoistOvh)-1),
		pct(stats.GeoMean(elimOvh)-1), pct(stats.GeoMean(optOvh)-1), "", "", "", "", "")
	t.AddNote("paper: overheads are <6%% (geometric mean) across NAS, Mantevo, and PARSEC benchmarks after aggregation and hoisting")
	t.AddNote("elim = hoist + dataflow guard elimination (available/provable checks deleted; see internal/analysis)")
	t.AddNote("opt = analysis-driven optimizer (global DCE, copy coalescing, LICM) under elim instrumentation; overhead stays relative to the unoptimized base, so negative values mean the optimized+guarded kernel beats the pristine one")
	t.AddNote("frame regs: entry-frame registers before -> after copy coalescing (both engines allocate exactly this many words per call)")
	return t
}

// caratKernel measures one kernel in all five configurations.
func (s *Stack) caratKernel(k workloads.IRKernel) caratResult {
	// Each configuration builds a fresh module; mk is handed the module
	// so pipelines that need it (StdOptimization) can be constructed.
	run := func(mk func(m *ir.Module) []passes.Pass) (uint64, *interp.Stats, int, error) {
		m := k.Build()
		if mk != nil {
			if err := passes.RunAll(m, mk(m)...); err != nil {
				return 0, nil, 0, err
			}
		}
		ip, err := interp.New(m)
		if err != nil {
			return 0, nil, 0, err
		}
		tb := carat.NewTable()
		ip.Hooks.Guard = func(a mem.Addr) int64 { return tb.Guard(a, false) }
		ip.Hooks.GuardRegion = tb.GuardRegion
		ip.Hooks.TrackAlloc = tb.TrackAlloc
		ip.Hooks.TrackFree = tb.TrackFree
		ip.Hooks.TrackEsc = tb.TrackEscape
		got, err := ip.Call(k.Entry)
		if err != nil {
			return 0, nil, 0, err
		}
		if tb.Violations > 0 {
			return 0, nil, 0, fmt.Errorf("carat: %d spurious violations in %s", tb.Violations, k.Name)
		}
		return got, &ip.Stats, m.Funcs[k.Entry].NumRegs, nil
	}
	base, baseStats, baseRegs, err := run(nil)
	if err != nil {
		panic(err)
	}
	naive, naiveStats, _, err := run(func(*ir.Module) []passes.Pass {
		return []passes.Pass{&passes.CARATInject{}}
	})
	if err != nil {
		panic(err)
	}
	hoisted, hoistedStats, _, err := run(func(*ir.Module) []passes.Pass {
		return []passes.Pass{&passes.CARATInject{}, &passes.CARATHoist{}}
	})
	if err != nil {
		panic(err)
	}
	elim, elimStats, _, err := run(func(*ir.Module) []passes.Pass {
		return []passes.Pass{&passes.CARATInject{}, &passes.CARATHoist{}, &passes.CARATElim{}}
	})
	if err != nil {
		panic(err)
	}
	// opt: the instrument+hoist+eliminate pipeline as in elim, then the
	// analysis-driven optimizer over the instrumented module — guards
	// and tracking calls are roots the optimizer must preserve while it
	// shrinks everything around them.
	opt, optStats, optRegs, err := run(func(m *ir.Module) []passes.Pass {
		return append([]passes.Pass{&passes.CARATInject{}, &passes.CARATHoist{}, &passes.CARATElim{}},
			passes.StdOptimization(m)...)
	})
	if err != nil {
		panic(err)
	}
	return caratResult{
		Name:              k.Name,
		BaseCycles:        baseStats.Cycles,
		NaiveCycles:       naiveStats.Cycles,
		HoistedCycles:     hoistedStats.Cycles,
		ElimCycles:        elimStats.Cycles,
		OptCycles:         optStats.Cycles,
		NaiveGuards:       naiveStats.Guards,
		HoistedGuards:     hoistedStats.Guards,
		ElimGuards:        elimStats.Guards,
		NaiveOverhead:     float64(naiveStats.Cycles-baseStats.Cycles) / float64(baseStats.Cycles),
		HoistedOverhead:   float64(hoistedStats.Cycles-baseStats.Cycles) / float64(baseStats.Cycles),
		ElimOverhead:      float64(elimStats.Cycles-baseStats.Cycles) / float64(baseStats.Cycles),
		OptOverhead:       float64(optStats.Cycles-baseStats.Cycles) / float64(baseStats.Cycles),
		BaseRegs:          baseRegs,
		OptRegs:           optRegs,
		SemanticsVerified: base == naive && naive == hoisted && hoisted == elim && elim == opt && (k.Want == 0 || base == k.Want),
	}
}

// CARATMobility regenerates the data-mobility side of §IV-A: whole-heap
// compaction (defragmentation) with pointer patching, at arbitrary
// granularity, plus the protection-domain demonstration.
func (s *Stack) CARATMobility() *Table {
	t := &Table{
		ID:     "carat-mobility",
		Title:  "CARAT data mobility: heap compaction with pointer patching",
		Header: []string{"metric", "before", "after"},
	}
	h, err := interp.NewHeap(0x10000, 64<<20)
	if err != nil {
		panic(err)
	}
	tb := carat.NewTable()
	// CARAT manages a flat arena at arbitrary granularity (no pages, no
	// buddy blocks): place regions with gaps, then free every other one
	// — classic fragmentation.
	const arena = mem.Addr(0x100_0000)
	const regionSize = 4096
	var bases []mem.Addr
	for i := 0; i < 512; i++ {
		a := arena + mem.Addr(i*2*regionSize)
		tb.TrackAlloc(a, regionSize)
		h.Store(a, uint64(i))
		bases = append(bases, a)
	}
	// Free every other region, then link each survivor to the next
	// survivor (a live linked structure crossing the fragmented heap).
	for i := 0; i < len(bases); i += 2 {
		tb.TrackFree(bases[i])
	}
	var survivors []mem.Addr
	for i := 1; i < len(bases); i += 2 {
		survivors = append(survivors, bases[i])
	}
	for i := 0; i+1 < len(survivors); i++ {
		h.Store(survivors[i]+8, uint64(survivors[i+1]))
		tb.TrackEscape(survivors[i]+8, uint64(survivors[i+1]))
	}
	beforeLargest := largestGap(tb, arena, 512*2*regionSize)
	beforeRegions := tb.Len()

	// Compact the survivors down toward the arena base.
	cost, err := tb.Compact(h, arena, 64)
	if err != nil {
		panic(err)
	}
	// Verify pointer integrity: compaction preserves address order, so
	// survivor k now lives at Regions()[k] and must point exactly at
	// Regions()[k+1]'s new base.
	intact := true
	rs := tb.Regions()
	if len(rs) != len(survivors) {
		intact = false
	}
	for idx := 0; intact && idx+1 < len(rs); idx++ {
		if h.Load(rs[idx].Base+8) != uint64(rs[idx+1].Base) {
			intact = false
		}
	}
	afterLargest := largestGap(tb, arena, 512*2*regionSize)
	t.AddRow("tracked regions", i64(int64(beforeRegions)), i64(int64(tb.Len())))
	t.AddRow("largest free span (KiB)", i64(int64(beforeLargest)/1024), i64(int64(afterLargest)/1024))
	t.AddRow("pointers patched", "", i64(tb.PointersFixed))
	t.AddRow("compaction cost (Kcyc)", "", f1(float64(cost)/1e3))
	t.AddRow("pointer integrity", "", map[bool]string{true: "verified", false: "BROKEN"}[intact])
	t.AddNote("memory is managed at arbitrary granularity (64-byte alignment here), not page granularity; movement works like a GC with compiler-tracked escapes")
	return t
}

// largestGap returns the largest contiguous unused span within the
// arena [base, base+size) given the tracked regions.
func largestGap(tb *carat.Table, base mem.Addr, size uint64) uint64 {
	cursor := base
	end := base + mem.Addr(size)
	var best uint64
	for _, r := range tb.Regions() {
		if r.Base < base || r.Base >= end {
			continue
		}
		if r.Base > cursor {
			if g := uint64(r.Base - cursor); g > best {
				best = g
			}
		}
		cursor = r.Base + mem.Addr(r.Size)
	}
	if cursor < end {
		if g := uint64(end - cursor); g > best {
			best = g
		}
	}
	return best
}
