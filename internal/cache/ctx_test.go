package cache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGetOrComputeCtxSources walks one key through every serving tier
// and checks the reported Source at each step.
func TestGetOrComputeCtxSources(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ctx := context.Background()
	k := NewEnc().Str("k", "sources").Sum()
	compute := func() ([]byte, error) { return []byte("v"), nil }

	c := New(Config{Dir: dir})
	if _, src, err := c.GetOrComputeCtx(ctx, k, compute); err != nil || src != SourceComputed {
		t.Fatalf("cold: src %v err %v, want computed", src, err)
	}
	if _, src, err := c.GetOrComputeCtx(ctx, k, compute); err != nil || src != SourceMem {
		t.Fatalf("warm: src %v err %v, want mem", src, err)
	}
	// A fresh cache over the same directory simulates a restart: the
	// value must come back from disk and be promoted.
	c2 := New(Config{Dir: dir})
	if _, src, err := c2.GetOrComputeCtx(ctx, k, compute); err != nil || src != SourceDisk {
		t.Fatalf("restart: src %v err %v, want disk", src, err)
	}
	if _, src, err := c2.GetOrComputeCtx(ctx, k, compute); err != nil || src != SourceMem {
		t.Fatalf("promoted: src %v err %v, want mem", src, err)
	}
}

// TestWaiterCancelledWhileLeaderComputes: a coalesced waiter whose
// context ends while the leader is mid-compute returns its ctx error
// without disturbing the flight — the leader still completes, caches
// the value, and later callers hit.
func TestWaiterCancelledWhileLeaderComputes(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := NewEnc().Str("k", "waiter-cancel").Sum()
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, src, err := c.GetOrComputeCtx(context.Background(), k, func() ([]byte, error) {
			close(started)
			<-release
			return []byte("slow"), nil
		})
		if err != nil || src != SourceComputed {
			t.Errorf("leader: src %v err %v", src, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeCtx(ctx, k, func() ([]byte, error) {
			return nil, errors.New("waiter must not compute")
		})
		waiterErr <- err
	}()
	// Give the waiter time to join the flight, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return while leader still computing")
	}

	close(release)
	wg.Wait()
	if v, src, err := c.GetOrComputeCtx(context.Background(), k, nil); err != nil || src != SourceMem || string(v) != "slow" {
		t.Fatalf("after leader finished: %q src %v err %v, want cached \"slow\"", v, src, err)
	}
	if st := c.Stats(); st.Computes != 1 {
		t.Fatalf("computes = %d, want 1", st.Computes)
	}
}

// parkedCtx is an already-cancelled context whose Err parks until gate
// closes. A leader holding it stops between joining its flight and
// noticing the cancellation, so a waiter can coalesce behind it.
type parkedCtx struct {
	context.Context
	entered chan struct{}
	gate    chan struct{}
	once    *sync.Once
}

func (p parkedCtx) Err() error {
	p.once.Do(func() { close(p.entered) })
	<-p.gate
	return p.Context.Err()
}

// TestLeaderCancelledWaiterRetries: a leader cancelled before its
// compute starts retires the flight with ErrLeaderCancelled; a live
// waiter coalesced behind it must not inherit the cancellation — it
// retries, becomes leader, and computes.
func TestLeaderCancelledWaiterRetries(t *testing.T) {
	t.Parallel()
	c := New(Config{})
	k := NewEnc().Str("k", "leader-cancel").Sum()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	lctx := parkedCtx{dead, make(chan struct{}), make(chan struct{}), new(sync.Once)}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeCtx(lctx, k, func() ([]byte, error) {
			return nil, errors.New("cancelled leader must not compute")
		})
		leaderErr <- err
	}()
	<-lctx.entered // the leader owns the flight and is parked before its ctx check
	waiterVal := make(chan string, 1)
	go func() {
		v, _, err := c.GetOrComputeCtx(context.Background(), k, func() ([]byte, error) {
			return []byte("retried"), nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterVal <- string(v)
	}()
	waitFor(t, func() bool { return c.Stats().Coalesced == 1 }, "waiter to coalesce")

	close(lctx.gate)
	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled leader did not return")
	}
	select {
	case v := <-waiterVal:
		if v != "retried" {
			t.Fatalf("waiter value = %q, want \"retried\"", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter did not retry after leader cancellation")
	}
	if st := c.Stats(); st.Computes != 1 {
		t.Fatalf("computes = %d, want 1 (the waiter's retry)", st.Computes)
	}
}
