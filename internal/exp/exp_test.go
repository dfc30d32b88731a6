package exp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRunExecutesEveryCell(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 8, 64} {
		var done [100]int32
		err := New(workers).Run(len(done), func(i int) error {
			atomic.AddInt32(&done[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range done {
			if c != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	t.Parallel()
	if err := New(4).Run(0, func(int) error { t.Fatal("cell ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	t.Parallel()
	const workers = 3
	var inFlight, peak int32
	var mu sync.Mutex
	err := New(workers).Run(50, func(i int) error {
		n := atomic.AddInt32(&inFlight, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		defer atomic.AddInt32(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", peak, workers)
	}
}

func TestPanicIsolation(t *testing.T) {
	t.Parallel()
	var ran int32
	err := New(4).Run(10, func(i int) error {
		if i == 3 {
			panic("cell blew up")
		}
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CellError", err)
	}
	if ce.Index != 3 || ce.Stack == nil {
		t.Fatalf("wrong cell error: index=%d stack=%v", ce.Index, ce.Stack != nil)
	}
	if !strings.Contains(err.Error(), "cell blew up") {
		t.Fatalf("panic value lost: %v", err)
	}
	if ran != 9 {
		t.Fatalf("only %d healthy cells ran, want 9", ran)
	}
}

func TestErrorsJoinedInIndexOrder(t *testing.T) {
	t.Parallel()
	err := New(8).Run(20, func(i int) error {
		if i%7 == 0 {
			return fmt.Errorf("bad-%d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors lost")
	}
	s := err.Error()
	prev := -1
	for _, want := range []string{"bad-0", "bad-7", "bad-14"} {
		at := strings.Index(s, want)
		if at < 0 {
			t.Fatalf("missing %q in %q", want, s)
		}
		if at < prev {
			t.Fatalf("errors out of index order: %q", s)
		}
		prev = at
	}
}

func TestMapReturnsIndexOrder(t *testing.T) {
	t.Parallel()
	got, err := Map(New(8), 64, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestMapRNGDeterministic is the core determinism property: the same
// root seed must yield bit-identical results at any worker count,
// because every cell's RNG is pre-split in index order.
func TestMapRNGDeterministic(t *testing.T) {
	t.Parallel()
	sample := func(workers int) []uint64 {
		out, err := MapRNG(New(workers), sim.NewRNG(42), 200, func(i int, rng *sim.RNG) (uint64, error) {
			// Draw a variable number of values so any cross-cell
			// stream sharing would desynchronize immediately.
			var v uint64
			for j := 0; j <= i%5; j++ {
				v = rng.Uint64()
			}
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := sample(1)
	for _, workers := range []int{2, 4, 16} {
		par := sample(workers)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: cell %d diverged: %d vs %d", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestMapRNGAdvancesRootDeterministically(t *testing.T) {
	t.Parallel()
	a, b := sim.NewRNG(7), sim.NewRNG(7)
	if _, err := MapRNG(New(4), a, 17, func(int, *sim.RNG) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		b.Split()
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("root RNG not advanced by exactly n splits")
	}
}

func TestDefaultWorkersEnv(t *testing.T) {
	t.Setenv(EnvParallel, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers = %d with %s=3", got, EnvParallel)
	}
	t.Setenv(EnvParallel, "garbage")
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers = %d with garbage env", got)
	}
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
}

// TestStatsCells: the lifetime cell counter counts cells across both
// the inline (width 1) and goroutine Run paths.
func TestStatsCells(t *testing.T) {
	t.Parallel()
	for _, w := range []int{1, 4} {
		p := New(w)
		if err := p.Run(9, func(int) error { return nil }); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if got := p.Stats(); got.Cells != 9 || got.Workers != w {
			t.Fatalf("width %d: stats = %+v, want Cells 9", w, got)
		}
	}
	// Counter survives goroutine churn.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// TestAcquireReleaseBounds checks the exposed slot protocol counts
// against the same semaphore Run uses: with the single slot held
// externally, a Run cannot start a cell until Release.
func TestAcquireReleaseBounds(t *testing.T) {
	p := New(1)
	p.Acquire()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.Run(1, func(int) error { close(started); return nil })
	}()
	select {
	case <-started:
		t.Fatal("cell ran while the only slot was held externally")
	case <-time.After(50 * time.Millisecond):
	}
	p.Release()
	if err := <-done; err != nil {
		t.Fatalf("Run after Release: %v", err)
	}
	select {
	case <-started:
	default:
		t.Fatal("cell never ran")
	}
}
