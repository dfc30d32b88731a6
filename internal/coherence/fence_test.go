package coherence

import "testing"

func TestStoreBufferPushAndPending(t *testing.T) {
	sb := NewStoreBuffer()
	sb.Push(1, true)
	sb.Push(2, false)
	if sb.Pending() != 2 {
		t.Fatalf("pending = %d", sb.Pending())
	}
}

func TestStoreBufferCapacityRetiresOldest(t *testing.T) {
	sb := NewStoreBuffer()
	sb.Capacity = 4
	for i := 0; i < 10; i++ {
		sb.Push(uint64(i), false)
	}
	if sb.Pending() != 4 {
		t.Fatalf("pending = %d, want capacity", sb.Pending())
	}
}

func TestFullFenceDrainsEverything(t *testing.T) {
	sb := NewStoreBuffer()
	sb.Push(1, true)
	sb.Push(2, false)
	sb.Push(3, false)
	stall := sb.FullFence()
	if stall != 3*sb.DrainPerEntry {
		t.Fatalf("stall = %d", stall)
	}
	if sb.Pending() != 0 {
		t.Fatal("buffer not empty after full fence")
	}
}

func TestSelectiveFenceDrainsOnlyTagged(t *testing.T) {
	sb := NewStoreBuffer()
	sb.Push(1, true)
	sb.Push(2, false)
	sb.Push(3, true)
	sb.Push(4, false)
	stall := sb.SelectiveFence()
	if stall != 2*sb.DrainPerEntry {
		t.Fatalf("stall = %d, want tagged-only drain", stall)
	}
	if sb.Pending() != 2 {
		t.Fatalf("pending = %d; unrelated stores must stay buffered", sb.Pending())
	}
}

func TestFenceComparisonShape(t *testing.T) {
	// The §V-B claim in miniature: with mostly-unrelated stores in
	// flight, selective fencing slashes synchronization stalls.
	full, sel := FenceComparison(1000, 4, 28)
	if sel >= full {
		t.Fatalf("selective (%d) must beat full (%d)", sel, full)
	}
	ratio := float64(full) / float64(sel)
	// 32 entries drained vs 4: expect ≈8x.
	if ratio < 6 || ratio > 10 {
		t.Fatalf("stall ratio = %.1f, want ≈8", ratio)
	}
	// With nothing unrelated, the two fences cost the same.
	f2, s2 := FenceComparison(100, 8, 0)
	if f2 != s2 {
		t.Fatalf("no-unrelated case differs: %d vs %d", f2, s2)
	}
}

// TestFenceComparisonTotals pins the stall totals the consistency table
// and its neighbours read: the capacity cases depend on which stores
// the buffer retires first, so they also pin the ring's order.
func TestFenceComparisonTotals(t *testing.T) {
	for _, c := range []struct {
		data, unrelated int
		full, sel       int64
	}{
		{8, 0, 32000, 32000},
		{8, 8, 64000, 32000},
		{8, 24, 128000, 32000},
		{4, 44, 192000, 16000},
		{1, 60, 224000, 0},
		{8, 50, 224000, 24000},
		{20, 30, 200000, 80000},
		{30, 20, 200000, 120000},
	} {
		full, sel := FenceComparison(1000, c.data, c.unrelated)
		if full != c.full || sel != c.sel {
			t.Errorf("FenceComparison(1000, %d, %d) = %d, %d; want %d, %d",
				c.data, c.unrelated, full, sel, c.full, c.sel)
		}
	}
}

// TestStoreBufferWarmAllocs checks that a warm buffer allocates
// nothing: eviction at capacity and both fences reuse the ring.
func TestStoreBufferWarmAllocs(t *testing.T) {
	sb := NewStoreBuffer()
	round := func() {
		for i := 0; i < 70; i++ {
			sb.Push(uint64(i), i%3 == 0)
		}
		sb.SelectiveFence()
		for i := 0; i < 10; i++ {
			sb.Push(uint64(i), false)
		}
		sb.FullFence()
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Errorf("warm store buffer: %.1f allocations per round, want 0", a)
	}
}
