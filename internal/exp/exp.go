// Package exp is the deterministic parallel experiment-execution engine:
// a bounded, panic-safe worker pool that runs independent experiment
// cells (sweep points, seeds, substrates, benchmarks) concurrently while
// guaranteeing results identical to a sequential run.
//
// Determinism rests on two rules the helpers here enforce:
//
//   - every cell's randomness is pre-split from a root sim.RNG in index
//     order *before* any cell starts (MapRNG), so the stream a cell sees
//     is a pure function of its index, never of goroutine scheduling;
//   - results land in an index-addressed slice and are consumed in
//     canonical (submission) order, so output ordering is scheduling-
//     independent too.
//
// A panicking cell fails only its own cell: the panic is captured as a
// *CellError (with stack) and surfaced from Run/Map, never re-raised on
// the pool's goroutines.
package exp

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// EnvParallel is the environment variable consulted by DefaultWorkers;
// it mirrors the interweave CLI's -parallel flag.
const EnvParallel = "INTERWEAVE_PARALLEL"

// DefaultWorkers returns the pool width used when none is specified:
// $INTERWEAVE_PARALLEL if set to a positive integer, else GOMAXPROCS.
func DefaultWorkers() int {
	if v := os.Getenv(EnvParallel); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded worker pool for independent experiment cells,
// built on a token semaphore: a cell runs only while it holds one of
// Workers() slots. Pools may be shared: concurrent Runs on one pool are
// bounded together, which is how a long-running service caps total
// cell concurrency across jobs.
//
// The zero Pool is not valid; use New.
type Pool struct {
	workers int
	sem     chan struct{}
	cells   atomic.Uint64 // cells started over the pool's lifetime
}

// PoolStats is a point-in-time snapshot of pool activity — the
// admission-control counters a long-running service reports. Taken
// field by field, so concurrent traffic makes it approximate. The JSON
// tags are its wire form in the experiment service's stats body.
type PoolStats struct {
	Workers int    `json:"workers"` // concurrency bound
	Active  int    `json:"active"`  // worker slots currently held
	Cells   uint64 `json:"cells"`   // cells started since the pool was created
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers: p.workers,
		Active:  len(p.sem),
		Cells:   p.cells.Load(),
	}
}

// New returns a pool running at most workers cells concurrently.
// workers <= 0 selects DefaultWorkers(); workers == 1 is fully
// sequential (cells run inline on the caller's goroutine).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Acquire blocks until a worker slot is free and takes it. Every
// Acquire must be balanced by exactly one Release.
func (p *Pool) Acquire() { p.sem <- struct{}{} }

// Release returns a worker slot taken by Acquire.
func (p *Pool) Release() { <-p.sem }

// CellError reports the failure of one cell: a returned error, or a
// recovered panic (Stack non-nil in that case).
type CellError struct {
	Index int
	Err   error
	Stack []byte
}

// Error renders the failure with the cell index and, for panics, the
// captured stack.
func (e *CellError) Error() string {
	if e.Stack != nil {
		return fmt.Sprintf("exp: cell %d panicked: %v\n%s", e.Index, e.Err, e.Stack)
	}
	return fmt.Sprintf("exp: cell %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error.
func (e *CellError) Unwrap() error { return e.Err }

// Run executes fn(i) for every i in [0, n), at most Workers() cells at a
// time, and blocks until all cells finish. Cell failures (errors and
// recovered panics) are collected and joined in index order; a failure
// in one cell never prevents the others from running.
func (p *Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if p.workers == 1 {
		// Cells run inline on the caller's goroutine, but still under
		// the semaphore, so a concurrent Run on the same pool stays
		// bounded at one cell.
		for i := 0; i < n; i++ {
			p.Acquire()
			p.cells.Add(1)
			errs[i] = runCell(i, fn)
			p.Release()
		}
		return joinCells(errs)
	}
	// One goroutine per cell, each admitted by the semaphore: at most
	// Workers() cells execute at a time, results land index-addressed,
	// and shutdown is just wg.Wait — there is no result channel to
	// close, so a panic escaping a cell (runCell confines cell panics,
	// but the pool does not bet its own integrity on that) still
	// reaches wg.Done and Release via the defers. The chaos-injected
	// regression test (TestShutdownUnderChaosInjection) pins this
	// contract.
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			p.Acquire()
			defer p.Release()
			p.cells.Add(1)
			errs[i] = runCell(i, fn)
		}(i)
	}
	wg.Wait()
	return joinCells(errs)
}

// runCell invokes one cell, converting an error return or a panic into
// a *CellError.
func runCell(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			rerr, ok := r.(error)
			if !ok {
				rerr = fmt.Errorf("%v", r)
			}
			err = &CellError{Index: i, Err: rerr, Stack: debug.Stack()}
		}
	}()
	if e := fn(i); e != nil {
		return &CellError{Index: i, Err: e}
	}
	return nil
}

// joinCells joins non-nil cell errors in index order.
func joinCells(errs []error) error {
	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	return errors.Join(nonNil...)
}

// Map runs fn over [0, n) on p and returns the results in index order.
// On error the slice still holds every successful cell's value.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Run(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// MapRNG is Map for randomized cells: it pre-splits one generator per
// cell from root, in index order, before any cell starts, so cell i's
// stream depends only on root's state and i — results are bit-identical
// regardless of worker count or goroutine scheduling. root is advanced
// exactly n splits.
func MapRNG[T any](p *Pool, root *sim.RNG, n int, fn func(i int, rng *sim.RNG) (T, error)) ([]T, error) {
	rngs := make([]*sim.RNG, n)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	return Map(p, n, func(i int) (T, error) { return fn(i, rngs[i]) })
}
