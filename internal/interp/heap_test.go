package interp

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

func newTestHeap(t *testing.T) *Heap {
	t.Helper()
	h, err := NewHeap(0x10000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapMoveOverlapForward(t *testing.T) {
	// dst overlaps the tail of src (dst > src): a naive front-to-back
	// copy-and-clear corrupts the overlapping words.
	h := newTestHeap(t)
	src := mem.Addr(0x20000)
	for i := 0; i < 8; i++ {
		h.Store(src+mem.Addr(i*8), uint64(100+i))
	}
	dst := src + 16 // overlap by 6 words
	h.Move(src, dst, 64)
	for i := 0; i < 8; i++ {
		if got := h.Load(dst + mem.Addr(i*8)); got != uint64(100+i) {
			t.Fatalf("dst word %d = %d, want %d", i, got, 100+i)
		}
	}
	// Source words outside the destination range are cleared.
	for i := 0; i < 2; i++ {
		if got := h.Load(src + mem.Addr(i*8)); got != 0 {
			t.Fatalf("src word %d = %d, want 0", i, got)
		}
	}
}

func TestHeapMoveOverlapBackward(t *testing.T) {
	// dst overlaps the head of src (dst < src).
	h := newTestHeap(t)
	src := mem.Addr(0x20040)
	for i := 0; i < 8; i++ {
		h.Store(src+mem.Addr(i*8), uint64(200+i))
	}
	dst := src - 24 // overlap by 5 words
	h.Move(src, dst, 64)
	for i := 0; i < 8; i++ {
		if got := h.Load(dst + mem.Addr(i*8)); got != uint64(200+i) {
			t.Fatalf("dst word %d = %d, want %d", i, got, 200+i)
		}
	}
	for i := 5; i < 8; i++ {
		if got := h.Load(src + mem.Addr(i*8)); got != 0 {
			t.Fatalf("src tail word %d = %d, want 0", i, got)
		}
	}
}

func TestHeapMoveSelf(t *testing.T) {
	h := newTestHeap(t)
	a := mem.Addr(0x20000)
	h.Store(a, 7)
	h.Store(a+8, 9)
	h.Move(a, a, 16)
	if h.Load(a) != 7 || h.Load(a+8) != 9 {
		t.Fatalf("self-move clobbered contents: %d %d", h.Load(a), h.Load(a+8))
	}
}

func TestHeapMovePartialWord(t *testing.T) {
	// n not a multiple of 8: the trailing partial word still moves
	// (word-granularity store). The old implementation's off < n loop
	// happened to cover this; keep the behavior pinned.
	h := newTestHeap(t)
	src, dst := mem.Addr(0x20000), mem.Addr(0x30000)
	h.Store(src, 11)
	h.Store(src+8, 22)
	h.Move(src, dst, 12) // 1.5 words -> 2 words
	if h.Load(dst) != 11 || h.Load(dst+8) != 22 {
		t.Fatalf("partial-word move lost data: %d %d", h.Load(dst), h.Load(dst+8))
	}
	if h.Load(src) != 0 || h.Load(src+8) != 0 {
		t.Fatalf("partial-word move left source: %d %d", h.Load(src), h.Load(src+8))
	}
	h.Move(dst, src, 0) // zero-length move is a no-op
	if h.Load(dst) != 11 {
		t.Fatalf("zero-length move moved data")
	}
}

func TestHeapSparseAndOverflowPages(t *testing.T) {
	h := newTestHeap(t)
	// Far beyond every page touched so far but under the direct limit.
	far := mem.Addr(1 << 30)
	if h.Load(far) != 0 {
		t.Fatalf("untouched far word not zero")
	}
	h.Store(far, 42)
	if h.Load(far) != 42 {
		t.Fatalf("far word lost")
	}
	// Beyond the direct page table entirely: overflow map territory.
	huge := mem.Addr(1 << 40)
	if h.Load(huge) != 0 {
		t.Fatalf("untouched overflow word not zero")
	}
	h.Store(huge, 43)
	if h.Load(huge) != 43 {
		t.Fatalf("overflow word lost")
	}
	// Unaligned addresses hit the containing word, as before.
	h.Store(far+3, 99)
	if h.Load(far) != 99 {
		t.Fatalf("unaligned store did not align down")
	}
}

func TestHeapSnapshot(t *testing.T) {
	h := newTestHeap(t)
	h.Store(0x20000, 1)
	h.Store(1<<40, 2)
	h.Store(0x20008, 0) // explicit zero is indistinguishable from untouched
	snap := h.Snapshot()
	want := map[mem.Addr]uint64{0x20000: 1, 1 << 40: 2}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d words, want %d: %v", len(snap), len(want), snap)
	}
	for a, v := range want {
		if snap[a] != v {
			t.Fatalf("snapshot[%#x] = %d, want %d", a, snap[a], v)
		}
	}
}

// heapWorkload drives h through allocations of several sizes (into both
// of the allocator's metadata tiers), stores, a Move, frees and a stray
// store, and returns the addresses it was given.
func heapWorkload(t *testing.T, h *Heap) []mem.Addr {
	t.Helper()
	var addrs []mem.Addr
	for i, n := range []uint64{24, 64, 4096, 1 << 16, 1 << 18, 8, 300} {
		a, err := h.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
		h.Store(a, uint64(i+1))
		h.Store(a+mem.Addr(n)-8, uint64(100+i))
	}
	h.Move(addrs[2], addrs[3], 4096)
	for _, i := range []int{1, 3, 5} {
		if err := h.Free(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []uint64{64, 1 << 16} {
		a, err := h.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	h.Store(1<<40, 7)
	return addrs
}

// TestHeapReset: a reset heap holds no words and a fresh allocator's
// counters, and the next run sees exactly what a new heap would show it
// — addresses, allocator Stats and final contents.
func TestHeapReset(t *testing.T) {
	h := newTestHeap(t)
	heapWorkload(t, h)
	h.Reset()
	if snap := h.Snapshot(); len(snap) != 0 {
		t.Fatalf("reset heap holds %d words: %v", len(snap), snap)
	}
	fresh := newTestHeap(t)
	if got, want := h.Buddy.Stats(), fresh.Buddy.Stats(); got != want {
		t.Fatalf("reset allocator stats %+v, want a fresh one's %+v", got, want)
	}
	got, want := heapWorkload(t, h), heapWorkload(t, fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alloc %d after reset at %#x, fresh heap gives %#x", i, got[i], want[i])
		}
	}
	if g, w := h.Buddy.Stats(), fresh.Buddy.Stats(); g != w {
		t.Fatalf("stats after rerun %+v, fresh heap %+v", g, w)
	}
	gs, ws := h.Snapshot(), fresh.Snapshot()
	if len(gs) != len(ws) {
		t.Fatalf("rerun holds %d words, fresh heap %d", len(gs), len(ws))
	}
	for a, v := range ws {
		if gs[a] != v {
			t.Fatalf("word %#x = %d after reset, %d on a fresh heap", a, gs[a], v)
		}
	}
	if err := h.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsOnOneResetHeap runs every CARAT kernel in turn on one
// heap, reset before each, and requires each run to match a run on a
// fresh interpreter: result, Stats and final heap contents.
func TestKernelsOnOneResetHeap(t *testing.T) {
	h, err := NewHeap(DefaultHeapBase, DefaultHeapSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workloads.CARATSuite() {
		fresh, err := New(k.Build())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Call(k.Entry)
		if err != nil {
			t.Fatal(err)
		}
		h.Reset()
		ip := NewOnHeap(k.Build(), h)
		got, err := ip.Call(k.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || ip.Stats != fresh.Stats {
			t.Errorf("%s on a reset heap: ret %d stats %+v; fresh heap: ret %d stats %+v",
				k.Name, got, ip.Stats, want, fresh.Stats)
		}
		gs, ws := h.Snapshot(), fresh.Heap.Snapshot()
		if len(gs) != len(ws) {
			t.Errorf("%s: %d words on a reset heap, %d on a fresh one", k.Name, len(gs), len(ws))
		}
		for a, v := range ws {
			if gs[a] != v {
				t.Errorf("%s: word %#x = %d on a reset heap, %d on a fresh one", k.Name, a, gs[a], v)
				break
			}
		}
	}
}

// TestFreshHeapBytes pins what a new heap costs the Go heap before its
// program touches much: NewHeap and one small Alloc allocate a bounded
// number of bytes, whatever the arena size. The metadata grows with the
// blocks touched, not with the arena, so a 512 MiB heap costs what a
// 1 MiB one does, up to a few bytes per block order.
func TestFreshHeapBytes(t *testing.T) {
	const bound = 16 << 10
	for size := uint64(1 << 20); size <= 512<<20; size <<= 3 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			h, err := NewHeap(DefaultHeapBase, size)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Alloc(64); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > bound {
			t.Errorf("%d MiB heap: NewHeap and one Alloc allocate %d bytes, want at most %d", size>>20, b, bound)
		} else {
			t.Logf("%d MiB heap: %d bytes", size>>20, b)
		}
	}
}
