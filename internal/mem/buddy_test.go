package mem

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// allocator is the surface shared by the fast and reference engines;
// the core allocator tests run against both.
type allocator interface {
	Alloc(n uint64) (Addr, error)
	Free(a Addr) error
	SizeOf(a Addr) (uint64, bool)
	BlockSize(n uint64) uint64
	Base() Addr
	Size() uint64
	LiveAllocs() int
	LargestFree() uint64
	Stats() BuddyStats
	CheckInvariants() error
}

// bothEngines runs test against the fast and the reference allocator.
func bothEngines(t *testing.T, base Addr, size uint64, minOrder uint, test func(t *testing.T, b allocator)) {
	t.Helper()
	t.Run("fast", func(t *testing.T) {
		b, err := NewBuddy(base, size, minOrder)
		if err != nil {
			t.Fatal(err)
		}
		test(t, b)
	})
	t.Run("reference", func(t *testing.T) {
		b, err := NewReferenceBuddy(base, size, minOrder)
		if err != nil {
			t.Fatal(err)
		}
		test(t, b)
	})
}

func TestBuddyBasicAllocFree(t *testing.T) {
	bothEngines(t, 0x1000, 1<<20, 6, func(t *testing.T, b allocator) { // 1 MiB, 64 B min
		a, err := b.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		if sz, ok := b.SizeOf(a); !ok || sz != 128 {
			t.Fatalf("block size = %d, want 128", sz)
		}
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.UsedBytes != 0 || st.FreeBytes != 1<<20 {
			t.Fatalf("used=%d free=%d", st.UsedBytes, st.FreeBytes)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuddyRejectsNonPow2(t *testing.T) {
	if _, err := NewBuddy(0, 1000, 4); err == nil {
		t.Fatal("expected error for non-power-of-two size")
	}
	if _, err := NewReferenceBuddy(0, 1000, 4); err == nil {
		t.Fatal("expected error for non-power-of-two size")
	}
}

func TestBuddyFullCoalesce(t *testing.T) {
	bothEngines(t, 0, 1<<16, 4, func(t *testing.T, b allocator) {
		var addrs []Addr
		for i := 0; i < 64; i++ {
			a, err := b.Alloc(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		if st := b.Stats(); st.FreeBytes != 0 {
			t.Fatalf("free = %d, want 0", st.FreeBytes)
		}
		for _, a := range addrs {
			if err := b.Free(a); err != nil {
				t.Fatal(err)
			}
		}
		// After freeing everything, the region must coalesce back to one
		// maximal block.
		if got := b.LargestFree(); got != 1<<16 {
			t.Fatalf("largest free = %d, want full region", got)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuddyOOM(t *testing.T) {
	bothEngines(t, 0, 1<<12, 4, func(t *testing.T, b allocator) {
		if _, err := b.Alloc(1 << 13); err != ErrOutOfMemory {
			t.Fatalf("err = %v, want OOM", err)
		}
		a, _ := b.Alloc(1 << 12)
		if _, err := b.Alloc(16); err != ErrOutOfMemory {
			t.Fatalf("err = %v, want OOM when full", err)
		}
		_ = b.Free(a)
		if _, err := b.Alloc(16); err != nil {
			t.Fatalf("alloc after free failed: %v", err)
		}
		if st := b.Stats(); st.FailedAllocs != 2 {
			t.Fatalf("FailedAllocs = %d, want 2", st.FailedAllocs)
		}
	})
}

func TestBuddyBadFree(t *testing.T) {
	bothEngines(t, 0, 1<<12, 4, func(t *testing.T, b allocator) {
		if err := b.Free(Addr(64)); err != ErrBadFree {
			t.Fatalf("err = %v, want ErrBadFree", err)
		}
		a, _ := b.Alloc(64)
		_ = b.Free(a)
		if err := b.Free(a); err != ErrBadFree {
			t.Fatalf("double free err = %v, want ErrBadFree", err)
		}
	})
}

func TestBuddyDistinctAddresses(t *testing.T) {
	bothEngines(t, 0, 1<<16, 4, func(t *testing.T, b allocator) {
		seen := make(map[Addr]bool)
		for i := 0; i < 100; i++ {
			a, err := b.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if seen[a] {
				t.Fatalf("address %#x returned twice", a)
			}
			seen[a] = true
		}
	})
}

// TestBuddyRandomWorkload is a property test: under a random alloc/free
// sequence the allocator's invariants always hold and no address overlap
// occurs. It runs against both engines.
func TestBuddyRandomWorkload(t *testing.T) {
	for _, engine := range []string{"fast", "reference"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			check := func(seed uint64) bool {
				rng := sim.NewRNG(seed)
				var b allocator
				if engine == "fast" {
					b, _ = NewBuddy(0x4000, 1<<18, 5)
				} else {
					b, _ = NewReferenceBuddy(0x4000, 1<<18, 5)
				}
				type live struct {
					addr Addr
					size uint64
				}
				var lives []live
				for step := 0; step < 500; step++ {
					if rng.Intn(2) == 0 || len(lives) == 0 {
						n := uint64(rng.Intn(4000) + 1)
						a, err := b.Alloc(n)
						if err != nil {
							continue // OOM under pressure is fine
						}
						sz, _ := b.SizeOf(a)
						// Overlap check against all live blocks.
						for _, l := range lives {
							if a < l.addr+Addr(l.size) && l.addr < a+Addr(sz) {
								return false
							}
						}
						lives = append(lives, live{a, sz})
					} else {
						i := rng.Intn(len(lives))
						if err := b.Free(lives[i].addr); err != nil {
							return false
						}
						lives = append(lives[:i], lives[i+1:]...)
					}
				}
				return b.CheckInvariants() == nil
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuddyZeroAllocHotPath pins the tentpole claim: steady-state Alloc
// and Free on the fast engine perform zero heap allocations.
func TestBuddyZeroAllocHotPath(t *testing.T) {
	b, err := NewBuddy(0, 1<<24, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: touch the metadata pages the workload will use.
	var warm []Addr
	for i := 0; i < 128; i++ {
		a, err := b.Alloc(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, a)
	}
	for _, a := range warm {
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		a, err := b.Alloc(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Alloc/Free hot path allocates %.1f objects/op, want 0", allocs)
	}
}

// corruptInvariant runs corrupt against a prepared allocator and
// requires CheckInvariants to produce a diagnostic containing want.
func requireDiagnostic(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("CheckInvariants passed on corrupted state, want diagnostic containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("diagnostic = %q, want it to contain %q", err, want)
	}
}

// TestBuddyCheckInvariantsDetectsCorruption is the regression test for
// the free-list/metadata blind spot: hand-corrupted state in either
// direction (list entry not marked free; free-marked block missing from
// its list) must produce a diagnostic, as must accounting drift.
func TestBuddyCheckInvariantsDetectsCorruption(t *testing.T) {
	fresh := func(t *testing.T) *Buddy {
		b, err := NewBuddy(0, 1<<16, 4)
		if err != nil {
			t.Fatal(err)
		}
		// A few allocations so there are split free blocks around,
		// including one on the order-4 (minimum) list.
		for _, n := range []uint64{64, 64, 16} {
			if _, err := b.Alloc(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("fresh state must be consistent: %v", err)
		}
		return b
	}

	t.Run("list entry not marked free", func(t *testing.T) {
		b := fresh(t)
		// Flip a listed free block's state behind the list's back.
		idx := uint64(b.freeHead[4])
		b.metaAt(idx, 4).state = blockAllocated
		requireDiagnostic(t, b.CheckInvariants(), "not marked free")
	})
	t.Run("free block missing from list", func(t *testing.T) {
		b := fresh(t)
		// Pop the head off the list (mask kept consistent) without
		// clearing the block's free marking.
		idx := uint64(b.freeHead[4])
		e := b.metaAt(idx, 4)
		b.freeHead[4] = e.next
		if e.next != noBlock {
			b.metaAt(uint64(e.next), 4).prev = noBlock
		} else {
			b.freeMask &^= 1 << 4
		}
		requireDiagnostic(t, b.CheckInvariants(), "absent from its free list")
	})
	t.Run("linkage broken", func(t *testing.T) {
		b := fresh(t)
		idx := uint64(b.freeHead[4])
		b.metaAt(idx, 4).prev = int32(idx)
		requireDiagnostic(t, b.CheckInvariants(), "linkage broken")
	})
	t.Run("accounting drift", func(t *testing.T) {
		b := fresh(t)
		b.FreeBytes += 16
		requireDiagnostic(t, b.CheckInvariants(), "free bytes")
	})
}

// TestReferenceBuddyCheckInvariantsDetectsCorruption closes the same
// blind spot on the reference engine: freeLists and blockFree could
// historically disagree silently.
func TestReferenceBuddyCheckInvariantsDetectsCorruption(t *testing.T) {
	fresh := func(t *testing.T) *ReferenceBuddy {
		b, err := NewReferenceBuddy(0, 1<<16, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Alloc(64); err != nil {
			t.Fatal(err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("fresh state must be consistent: %v", err)
		}
		return b
	}

	t.Run("list entry not in blockFree", func(t *testing.T) {
		b := fresh(t)
		off := b.freeLists[6][0]
		delete(b.blockFree, freeKey(off, 6))
		requireDiagnostic(t, b.CheckInvariants(), "not marked free in blockFree")
	})
	t.Run("blockFree entry not listed", func(t *testing.T) {
		b := fresh(t)
		b.blockFree[freeKey(48, 4)] = true
		requireDiagnostic(t, b.CheckInvariants(), "blockFree marks")
	})
	t.Run("allocated and free", func(t *testing.T) {
		b := fresh(t)
		off := b.freeLists[6][0]
		b.allocated[off] = 6
		// Keep byte accounting consistent so the cross-check fires first.
		b.UsedBytes += 64
		b.FreeBytes -= 64
		requireDiagnostic(t, b.CheckInvariants(), "both allocated and on a free list")
	})
}

func TestNUMAPreferredZone(t *testing.T) {
	n, err := NewNUMA(2, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Alloc(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if z := n.ZoneOf(a); z == nil || z.ID != 1 {
		t.Fatalf("allocation landed in zone %v, want 1", z)
	}
	if err := n.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestNUMAFallback(t *testing.T) {
	n, _ := NewNUMA(2, 1<<12, 4)
	// Exhaust zone 0.
	if _, err := n.Alloc(0, 1<<12); err != nil {
		t.Fatal(err)
	}
	a, err := n.Alloc(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if z := n.ZoneOf(a); z.ID != 1 {
		t.Fatalf("fallback went to zone %d, want 1", z.ID)
	}
}

func TestNUMADistance(t *testing.T) {
	n, _ := NewNUMA(3, 1<<12, 4)
	if n.Distance(0, 0) != 10 || n.Distance(0, 2) != 21 {
		t.Fatal("distance matrix wrong")
	}
}

func TestNUMABadZone(t *testing.T) {
	n, _ := NewNUMA(1, 1<<12, 4)
	if _, err := n.Alloc(5, 64); err == nil {
		t.Fatal("expected error for bad zone")
	}
	if err := n.Free(Addr(1 << 40)); err != ErrBadFree {
		t.Fatal("expected ErrBadFree for foreign address")
	}
	if _, err := n.AllocOn(0, 5, 64); err == nil {
		t.Fatal("expected error for bad zone via AllocOn")
	}
	if err := n.FreeOn(0, Addr(1<<40)); err != ErrBadFree {
		t.Fatal("expected ErrBadFree for foreign address via FreeOn")
	}
}

// TestNUMAAllocOn exercises the cached allocation path: locality to the
// preferred zone, distance-ordered fallback, and FreeOn routing.
func TestNUMAAllocOn(t *testing.T) {
	n, err := NewNUMA(2, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachCaches(4, 8); err != nil {
		t.Fatal(err)
	}
	a, err := n.AllocOn(2, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if z := n.ZoneOf(a); z == nil || z.ID != 1 {
		t.Fatalf("allocation landed in zone %v, want 1", z)
	}
	if err := n.FreeOn(2, a); err != nil {
		t.Fatal(err)
	}
	// Exhaust zone 0 through the cache; the next allocation must fall
	// back to zone 1.
	var held []Addr
	for {
		a, err := n.AllocOn(0, 0, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		if n.ZoneOf(a).ID != 0 {
			held = append(held, a)
			break
		}
		held = append(held, a)
	}
	for _, a := range held {
		if err := n.FreeOn(0, a); err != nil {
			t.Fatal(err)
		}
	}
	for _, z := range n.Zones {
		if err := z.Cache.Drain(); err != nil {
			t.Fatal(err)
		}
		if z.Buddy.LiveAllocs() != 0 {
			t.Fatalf("zone %d leaks %d blocks after drain", z.ID, z.Buddy.LiveAllocs())
		}
		if err := z.Buddy.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(16, 4, 12)
	if tlb.Access(Addr(0x1000)) {
		t.Fatal("cold access hit")
	}
	if !tlb.Access(Addr(0x1008)) {
		t.Fatal("same-page access missed")
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(4, 2, 12)
	tlb.Access(Addr(0x1000))
	tlb.Flush()
	if tlb.Access(Addr(0x1000)) {
		t.Fatal("hit after flush")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	// 1 set, 2 ways: third distinct page evicts the least recently used.
	tlb := NewTLB(1, 2, 12)
	tlb.Access(Addr(0x0000)) // page 0
	tlb.Access(Addr(0x1000)) // page 1
	tlb.Access(Addr(0x0000)) // touch page 0 (page 1 is now LRU)
	tlb.Access(Addr(0x2000)) // page 2 evicts page 1
	if !tlb.Access(Addr(0x0000)) {
		t.Fatal("page 0 evicted despite being MRU")
	}
	if tlb.Access(Addr(0x1000)) {
		t.Fatal("page 1 should have been evicted")
	}
}

// TestTLBReachProperty encodes the paper's §III claim: with large pages
// whose total reach covers the working set, misses stop entirely after
// warm-up; with 4K pages over the same working set, they do not.
func TestTLBReachProperty(t *testing.T) {
	const workingSet = 64 << 20 // 64 MiB
	// 2 MiB pages, 64 entries -> 128 MiB reach: covers the set.
	large := NewTLB(16, 4, 21)
	if large.Reach() < workingSet {
		t.Fatal("test geometry wrong")
	}
	// 4 KiB pages, 64 entries -> 256 KiB reach: far too small.
	small := NewTLB(16, 4, 12)

	rng := sim.NewRNG(99)
	var addrs []Addr
	for i := 0; i < 50_000; i++ {
		addrs = append(addrs, Addr(rng.Int63n(workingSet)))
	}
	// Warm-up pass.
	for _, a := range addrs {
		large.Access(a)
		small.Access(a)
	}
	largeWarmMisses := large.Misses
	smallWarmMisses := small.Misses
	// Steady-state pass over the same stream.
	for _, a := range addrs {
		large.Access(a)
		small.Access(a)
	}
	if large.Misses != largeWarmMisses {
		t.Fatalf("large-page TLB missed %d times after warm-up; paper property violated",
			large.Misses-largeWarmMisses)
	}
	if small.Misses == smallWarmMisses {
		t.Fatal("4K TLB implausibly stopped missing")
	}
}

func TestPagingCostModes(t *testing.T) {
	walk, fault := int64(220), int64(4000)

	none := NewPagingCost(PagingNone, nil, walk, fault)
	if c := none.Access(Addr(0x123456)); c != 0 {
		t.Fatalf("PagingNone cost = %d", c)
	}

	ident := NewPagingCost(PagingIdentityLarge, NewTLB(16, 4, 30), walk, fault)
	first := ident.Access(Addr(0x1000))
	second := ident.Access(Addr(0x2000)) // same 1 GiB page
	if first != walk || second != 0 {
		t.Fatalf("identity costs = %d,%d", first, second)
	}
	if ident.Faults != 0 {
		t.Fatal("identity mapping must never fault")
	}

	demand := NewPagingCost(PagingDemand4K, NewTLB(16, 4, 12), walk, fault)
	c1 := demand.Access(Addr(0x1000))
	if c1 != walk+fault {
		t.Fatalf("first touch cost = %d, want %d", c1, walk+fault)
	}
	c2 := demand.Access(Addr(0x1000))
	if c2 != 0 {
		t.Fatalf("warm access cost = %d", c2)
	}
	if demand.Faults != 1 {
		t.Fatalf("faults = %d", demand.Faults)
	}
}

func TestTLBInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTLB(0, 1, 12)
}
