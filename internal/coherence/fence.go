package coherence

// This file models the memory-consistency half of §V-B's motivation:
// "Ordering constraints in consistency models serialize all accesses of
// a particular type, without selectivity. A fence orders writes that
// produce data before setting the done flag, but it also orders all
// other writes the thread issued, even if they are unrelated to the
// intended use of the fence. Individual writes within a producer's data
// production subroutine could semantically proceed in any order, yet
// x86-TSO unnecessarily enforces a total order."
//
// StoreBuffer models a TSO store buffer; fences either drain everything
// (x86-TSO) or only the stores tagged as belonging to the synchronized
// data set (the selective ordering that language-level semantics enable).

// StoreEntry is one buffered store.
type StoreEntry struct {
	Line uint64
	// Tagged marks the store as part of the synchronized data set (the
	// data the flag protects).
	Tagged bool
}

// StoreBuffer is a simple in-order TSO store buffer.
type StoreBuffer struct {
	// DrainPerEntry is the cycles to retire one buffered store at a
	// fence (write it through to the coherent level).
	DrainPerEntry int64
	// Capacity bounds buffered entries; when full, the oldest entry
	// retires in the background for free (it had time to drain).
	Capacity int

	// entries holds the buffered stores, oldest first. Retiring and
	// draining shift or filter it in place, so once it has grown to
	// Capacity a warm buffer allocates nothing.
	entries []StoreEntry

	// Stats.
	StoresBuffered int64
	FullDrains     int64
	SelDrains      int64
	StallCycles    int64
}

// NewStoreBuffer creates a buffer with x64-like parameters (56-entry
// buffer, a few cycles to retire an entry at a fence).
func NewStoreBuffer() *StoreBuffer {
	return &StoreBuffer{DrainPerEntry: 4, Capacity: 56}
}

// Push buffers a store.
func (sb *StoreBuffer) Push(line uint64, tagged bool) {
	if len(sb.entries) >= sb.Capacity {
		sb.entries = sb.entries[:copy(sb.entries, sb.entries[1:])]
	}
	sb.entries = append(sb.entries, StoreEntry{Line: line, Tagged: tagged})
	sb.StoresBuffered++
}

// Pending returns the number of buffered stores.
func (sb *StoreBuffer) Pending() int { return len(sb.entries) }

// FullFence is the x86-TSO fence: every buffered store drains, related
// or not. Returns the stall cycles.
func (sb *StoreBuffer) FullFence() int64 {
	stall := int64(len(sb.entries)) * sb.DrainPerEntry
	sb.entries = sb.entries[:0]
	sb.FullDrains++
	sb.StallCycles += stall
	return stall
}

// SelectiveFence drains only the tagged stores — the ordering the
// program actually needs ("steer their behavior proactively by
// instructing the hardware to apply specialized memory ordering rules").
// Untagged stores stay buffered, in order, and retire in the
// background. Returns the stall cycles.
func (sb *StoreBuffer) SelectiveFence() int64 {
	kept := sb.entries[:0]
	for _, e := range sb.entries {
		if !e.Tagged {
			kept = append(kept, e)
		}
	}
	drained := int64(len(sb.entries) - len(kept))
	sb.entries = kept
	stall := drained * sb.DrainPerEntry
	sb.SelDrains++
	sb.StallCycles += stall
	return stall
}

// FenceComparison runs the producer/flag protocol: each round buffers
// dataStores tagged stores and unrelatedStores untagged ones, then
// fences before publishing the flag. It returns total stall cycles under
// full and selective fencing.
func FenceComparison(rounds, dataStores, unrelatedStores int) (full, selective int64) {
	fb := NewStoreBuffer()
	sb := NewStoreBuffer()
	for r := 0; r < rounds; r++ {
		for i := 0; i < dataStores; i++ {
			fb.Push(uint64(r*100+i), true)
			sb.Push(uint64(r*100+i), true)
		}
		for i := 0; i < unrelatedStores; i++ {
			fb.Push(uint64(1_000_000+r*100+i), false)
			sb.Push(uint64(1_000_000+r*100+i), false)
		}
		full += fb.FullFence()
		selective += sb.SelectiveFence()
	}
	return full, selective
}
