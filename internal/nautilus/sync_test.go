package nautilus

import "testing"

func TestBarrierSynchronizes(t *testing.T) {
	eng, k := newKernel(t, 4, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	const n = 4
	b := NewBarrier(k, n)
	phase := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(i, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
			for round := 0; round < 3; round++ {
				// Unequal work before the barrier.
				tc.Compute(int64(1000 * (i + 1)))
				tc.Arrive(b)
				phase[i]++
				// All participants must be in the same round here.
				for j := 0; j < n; j++ {
					if phase[j] < phase[i]-1 {
						t.Errorf("thread %d raced ahead: %v", i, phase)
					}
				}
			}
		})
	}
	eng.RunUntil(10_000_000)
	for i := 0; i < n; i++ {
		if phase[i] != 3 {
			t.Fatalf("thread %d completed %d rounds", i, phase[i])
		}
	}
	if b.Rounds != 3 {
		t.Fatalf("barrier rounds = %d", b.Rounds)
	}
}

func TestBarrierReusable(t *testing.T) {
	eng, k := newKernel(t, 2, Config{Timing: TimingCooperative, QuantumCycles: 1 << 30})
	b := NewBarrier(k, 2)
	count := 0
	for i := 0; i < 2; i++ {
		k.Spawn(i, ClassThread, ThreadOpts{}, func(tc *ThreadCtx) {
			for r := 0; r < 10; r++ {
				tc.Arrive(b)
			}
			count++
		})
	}
	eng.RunUntil(10_000_000)
	if count != 2 {
		t.Fatalf("threads finished = %d (barrier deadlock?)", count)
	}
}

func TestBarrierBadCountPanics(t *testing.T) {
	_, k := newKernel(t, 1, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(k, 0)
}
