package sim

import (
	"fmt"
	"testing"
)

// burstDelays span the radix queue's buckets: same tick, neighbours,
// and jumps far enough that a burst waits in a high bucket and is
// redistributed before it fires.
var burstDelays = []Time{0, 1, 3, 64, 1000, 1 << 14, 1 << 20}

// burstProgram is a seeded scheduling program built around bursts:
// runs of consecutive At-calls due at the same time. It numbers every
// call in schedule order and logs the numbers in fire order.
type burstProgram struct {
	eng     diffEngine
	seed    uint64
	halts   bool
	at      []Time     // per call: its due time
	from    []Time     // per call: the clock when it was made
	handles []canceler // per call: its handle
	fired   []int      // call numbers in fire order
	// scheduled, when non-nil, reads the engine's schedule counter.
	scheduled func() uint64
	miscount  string // first disagreement with the counter
	cancels   int    // Cancel calls that hit a pending event
	deadlines int    // RunUntil deadlines equal to a pending burst's time
}

// schedule makes one At-call due at t: a child from inside a handler,
// a root between runs.
func (p *burstProgram) schedule(t Time, inHandler bool, gen int) {
	n := len(p.at)
	fn := func() { p.fire(n, gen) }
	var h canceler
	if inHandler {
		h = p.eng.after(t-p.eng.now(), fn)
	} else {
		h = p.eng.at(t, fn)
	}
	p.at = append(p.at, t)
	p.from = append(p.from, p.eng.now())
	p.handles = append(p.handles, h)
	if p.scheduled != nil && p.miscount == "" && p.scheduled() != uint64(len(p.at)) {
		p.miscount = fmt.Sprintf("after %d At-calls Scheduled() = %d", len(p.at), p.scheduled())
	}
}

// burst schedules 1-4 same-time calls at a random distance, sometimes
// followed by one call at another time, which ends the run.
func (p *burstProgram) burst(next func(uint64) uint64, inHandler bool, gen int) {
	t := p.eng.now() + burstDelays[next(uint64(len(burstDelays)))]
	for k, n := uint64(0), 1+next(4); k < n; k++ {
		p.schedule(t, inHandler, gen)
	}
	if next(3) == 0 {
		p.schedule(t+1+Time(next(50)), inHandler, gen)
	}
}

func (p *burstProgram) fire(n, gen int) {
	p.fired = append(p.fired, n)
	r := mix64(p.seed ^ uint64(n))
	next := func(k uint64) uint64 {
		r = mix64(r)
		return r % k
	}
	if gen < 4 {
		for b, nb := uint64(0), next(3); b < nb; b++ {
			p.burst(next, true, gen+1)
		}
	}
	if next(4) == 0 {
		p.cancel(next)
	}
	if p.halts && next(30) == 0 {
		p.eng.halt()
	}
}

// cancel cancels a random call: pending (leaving a tombstone), fired
// or already cancelled (a no-op).
func (p *burstProgram) cancel(next func(uint64) uint64) {
	before := p.eng.pending()
	p.handles[next(uint64(len(p.handles)))].Cancel()
	if p.eng.pending() < before {
		p.cancels++
	}
}

// pendingTime returns the due time of a random call that has not fired
// yet, or false.
func (p *burstProgram) pendingTime(next func(uint64) uint64) (Time, bool) {
	done := make([]bool, len(p.at))
	for _, n := range p.fired {
		done[n] = true
	}
	var open []Time
	for n, t := range p.at {
		if !done[n] && t >= p.eng.now() {
			open = append(open, t)
		}
	}
	if len(open) == 0 {
		return 0, false
	}
	return open[next(uint64(len(open)))], true
}

func (p *burstProgram) run() {
	r := p.seed
	next := func(k uint64) uint64 {
		r = mix64(r)
		return r % k
	}
	for phase := 0; phase < 12; phase++ {
		for k, n := uint64(0), 1+next(3); k < n; k++ {
			p.burst(next, false, 0)
		}
		if next(2) == 0 {
			p.cancel(next)
		}
		switch next(3) {
		case 0:
			p.eng.run()
		case 1:
			// A deadline on a pending call's time: a burst due exactly
			// then fires whole.
			if t, ok := p.pendingTime(next); ok {
				p.deadlines++
				p.eng.runUntil(t)
				break
			}
			fallthrough
		default:
			p.eng.runUntil(p.eng.now() + burstDelays[next(uint64(len(burstDelays)))])
		}
	}
	for p.eng.pending() > 0 {
		p.eng.run()
	}
}

// TestEngineSameTimeRunsFireBackToBack pins the contract idle batching
// in internal/heartbeat rests on. Scheduled counts every At-call once,
// and At-calls that are consecutive in that count and due at the same
// time fire back to back. Seeded burst programs cover redistribution out
// of high buckets, cancelled tombstones, RunUntil deadlines on a burst's
// time, and Halt. Engine's fire order must equal the sorted-slice
// oracle's.
func TestEngineSameTimeRunsFireBackToBack(t *testing.T) {
	var pairs, cancels, deadlines, far int
	for seed := uint64(1); seed <= 40; seed++ {
		halts := seed%2 == 0
		ref := &burstProgram{eng: refDiff{&refEngine{}}, seed: seed, halts: halts}
		ref.run()
		e := NewEngine()
		got := &burstProgram{eng: engineDiff{e}, seed: seed, halts: halts, scheduled: e.Scheduled}
		got.run()
		if got.miscount != "" {
			t.Fatalf("seed %d: %s", seed, got.miscount)
		}
		if fmt.Sprint(got.fired) != fmt.Sprint(ref.fired) {
			t.Fatalf("seed %d: fire order differs from the oracle\n got  %v\n want %v", seed, got.fired, ref.fired)
		}
		pos := make([]int, len(got.at))
		for i := range pos {
			pos[i] = -1
		}
		for i, n := range got.fired {
			pos[n] = i
		}
		for n := 0; n+1 < len(got.at); n++ {
			if got.at[n] != got.at[n+1] || pos[n] < 0 || pos[n+1] < 0 {
				continue
			}
			pairs++
			if got.at[n]-got.from[n] >= 1<<14 {
				far++
			}
			if pos[n+1] != pos[n]+1 {
				t.Fatalf("seed %d: calls %d and %d are due at %d but fired at positions %d and %d",
					seed, n, n+1, got.at[n], pos[n], pos[n+1])
			}
		}
		cancels += got.cancels
		deadlines += got.deadlines
	}
	t.Logf("%d back-to-back pairs (%d due 1<<14 or more ahead), %d tombstones, %d deadlines on a pending time",
		pairs, far, cancels, deadlines)
	if pairs < 1000 || far < 100 || cancels < 50 || deadlines < 50 {
		t.Fatalf("programs too small to test the contract: %d pairs, %d far, %d tombstones, %d deadlines",
			pairs, far, cancels, deadlines)
	}
}
