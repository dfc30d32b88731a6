package nautilus

// Synchronization primitives built on the kernel's fast events — the
// "streamlined kernel primitives such as synchronization and threading
// facilities" (§III) a hybrid runtime links against.

// Barrier is a reusable sense-counting barrier for n threads.
type Barrier struct {
	n       int
	arrived int
	ev      *Event

	Rounds int64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic("nautilus: barrier needs at least one participant")
	}
	return &Barrier{n: n, ev: NewEvent(k)}
}

// Arrive blocks until all n participants have arrived; the last arrival
// releases everyone.
func (tc *ThreadCtx) Arrive(b *Barrier) {
	tc.Compute(8) // arrival bookkeeping
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.Rounds++
		tc.Broadcast(b.ev)
		return
	}
	tc.Wait(b.ev)
}
