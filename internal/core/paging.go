package core

import (
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// pagingResult is one kernel's cycles with no translation cost, and
// the translation cycles each regime adds to them.
type pagingResult struct {
	base, demand, ident, none int64
	demandMissRate            float64
}

// Paging regenerates the paper's §I motivating limitation: "current
// hardware/software stacks for parallelism require virtual memory in the
// form of paging, which then demands the existence of TLBs ... these in
// turn have substantial overheads in time and energy". It runs the CARAT
// kernel suite under three translation regimes:
//
//   - demand 4K paging (the commodity stack): TLB misses + page faults;
//   - identity-mapped large pages (Nautilus, §III): misses vanish once
//     the TLB reach covers the footprint;
//   - no translation at all (CARAT, §IV-A): physical addresses, zero
//     hardware translation cost — protection comes from the compiler.
func (s *Stack) Paging() *Table {
	t := &Table{
		ID:     "paging",
		Title:  "Address translation overhead by regime",
		Header: []string{"kernel", "4K demand ovh", "identity-large ovh", "CARAT (none) ovh", "4K TLB miss rate"},
	}
	suite := workloads.CARATSuite()
	for i, r := range runCells(s, "paging", len(suite), func(i int) pagingResult {
		return s.pagingKernel(suite[i])
	}) {
		ovh := func(c int64) float64 { return float64(c) / float64(r.base) }
		t.AddRow(suite[i].Name, pct(ovh(r.demand)), pct(ovh(r.ident)), pct(ovh(r.none)),
			pct(r.demandMissRate))
	}
	t.AddNote("identity-mapped large pages make TLB misses vanish after warm-up (§III); CARAT removes translation hardware entirely (§IV-A)")
	return t
}

// pagingKernel executes k once and feeds every memory access to each
// regime's translation model. The access stream does not depend on the
// cycles a hook charges, so one run whose hook charges nothing yields
// the base cycles, and each regime's total is base plus what its model
// accumulated.
func (s *Stack) pagingKernel(k workloads.IRKernel) pagingResult {
	demand := mem.NewPagingCost(mem.PagingDemand4K, mem.NewTLB(16, 4, 12),
		s.Model.HW.TLBMiss, 4000)
	ident := mem.NewPagingCost(mem.PagingIdentityLarge, mem.NewTLB(16, 4, 30),
		s.Model.HW.TLBMiss, 0)
	none := mem.NewPagingCost(mem.PagingNone, nil, 0, 0)
	ip, err := interp.New(k.Build())
	if err != nil {
		panic(err)
	}
	ip.Hooks.MemAccess = func(a mem.Addr, _ bool) int64 {
		demand.Access(a)
		ident.Access(a)
		none.Access(a)
		return 0
	}
	if _, err := ip.Call(k.Entry); err != nil {
		panic(err)
	}
	return pagingResult{
		base: ip.Stats.Cycles, demand: demand.TotalCycles, ident: ident.TotalCycles,
		none: none.TotalCycles, demandMissRate: demand.TLB.MissRate(),
	}
}
