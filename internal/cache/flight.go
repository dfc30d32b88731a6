package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrLeaderPanic is wrapped into the error coalesced waiters receive
// when the leader computing their key panicked. The panic itself
// propagates on the leader's goroutine, with the real stack; waiters
// get this marker instead of a second panic so one faulty compute fails
// exactly the callers that depend on it, each on its own goroutine.
var ErrLeaderPanic = errors.New("cache: coalesced leader panicked")

// ErrLeaderCancelled is the error a flight finishes with when its
// leader's context ended before the compute ran. Unlike a compute
// failure it says nothing about the key itself, so GetOrComputeCtx
// waiters whose own context is still live treat it as "try again"
// rather than a failure: one cancelled submitter must not fail the
// other callers coalesced behind it.
var ErrLeaderCancelled = errors.New("cache: coalesced leader cancelled")

// flightGroup deduplicates in-flight computes per key: the first caller
// to join a key becomes the leader and runs the compute; callers
// arriving before the leader finishes become waiters and share the
// leader's result. The entry is removed when the leader finishes, so a
// failed compute is retried by the next caller rather than poisoning
// the key.
type flightGroup struct {
	mu    sync.Mutex
	calls map[Key]*flightCall
}

// flightCall is one in-flight compute. done is closed exactly once by
// finish, after val/err are set.
type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// join returns the call for k, creating it if absent. leader reports
// whether the caller must run the compute and finish the call.
func (g *flightGroup) join(k Key) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[Key]*flightCall)
	}
	if c, ok := g.calls[k]; ok {
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[k] = c
	return c, true
}

// finish publishes the leader's outcome, wakes every waiter, and
// retires the key so later callers start a fresh flight.
func (g *flightGroup) finish(k Key, c *flightCall, val []byte, err error) {
	g.mu.Lock()
	delete(g.calls, k)
	g.mu.Unlock()
	c.val = val
	c.err = err
	close(c.done)
}

// waitCtx blocks until the leader finishes and returns its outcome, or
// until the caller's own context ends (returning its ctx error). A
// leader failure is wrapped so the waiter's error names the coalescing
// (and %w keeps fault classification — e.g. chaos.AsFault — intact).
// Abandoning a flight never disturbs it: the leader keeps computing and
// other waiters keep waiting, so the cache is never contaminated.
func (c *flightCall) waitCtx(ctx context.Context) ([]byte, error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, fmt.Errorf("cache: coalesced compute failed: %w", c.err)
		}
		return c.val, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
