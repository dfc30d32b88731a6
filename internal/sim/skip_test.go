package sim

import (
	"fmt"
	"testing"
)

// skipNs are the bounds SkipIntn is checked at: the fig3 steal scopes
// (7…127), rejection bands of 616 and 16 draws (1000, 1023), powers of
// two (no band), and large n whose band is wide (2^62+1) or narrow
// (2^63−25, 50 draws).
var skipNs = []int{1, 2, 3, 7, 15, 31, 63, 127, 1000, 1023, 1 << 40, 1<<62 + 1, 1<<63 - 25}

// band returns t = 2^64 mod n: Intn(n) rejects the top t outputs.
func band(n int) uint64 { return -uint64(n) % uint64(n) }

// replayIntn advances r the slow way SkipIntn must match.
func replayIntn(r *RNG, n int, k int64) {
	for ; k > 0; k-- {
		r.Intn(n)
	}
}

func TestRNGInverseConstants(t *testing.T) {
	for _, c := range []struct{ a, inv uint64 }{
		{gamma, gammaInv}, {mulA, mulAInv}, {mulB, mulBInv},
	} {
		if c.a*c.inv != 1 {
			t.Errorf("%#x · %#x = %#x mod 2^64, want 1", c.a, c.inv, c.a*c.inv)
		}
	}
}

func TestUnmixInvertsUint64(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Uint64()
		if got := unmix(v); got != r.state {
			t.Fatalf("draw %d: unmix(%#x) = %#x, want state %#x", i, v, got, r.state)
		}
	}
}

// TestSkipIntnMatchesIntn compares SkipIntn(n, k) with k calls of
// Intn(n) by the state they leave, for every n at k = 0, 1, t, t+1,
// 100 and 5000 from 50 seeds (t and t+1 only where replay is cheap).
func TestSkipIntnMatchesIntn(t *testing.T) {
	for _, n := range skipNs {
		ks := []int64{0, 1, 100, 5000}
		if tb := band(n); tb < 1<<20 {
			ks = append(ks, int64(tb), int64(tb)+1)
		}
		for _, k := range ks {
			for seed := uint64(1); seed <= 50; seed++ {
				want, got := NewRNG(seed), NewRNG(seed)
				replayIntn(want, n, k)
				got.SkipIntn(n, k)
				if got.state != want.state {
					t.Fatalf("n=%d k=%d seed=%d: state %#x, want %#x", n, k, seed, got.state, want.state)
				}
			}
		}
	}
}

// TestSkipIntnForcedRejections builds states whose next k draws land on
// a rejected output at a chosen draw, so the rejecting call is certain
// to fall inside (or just outside) the skipped window.
func TestSkipIntnForcedRejections(t *testing.T) {
	k := uint64(5000)
	for _, n := range []int{7, 1000, 1023, 1<<63 - 25} {
		tb := band(n)
		for _, j := range []uint64{0, tb - 1} {
			p := unmix(^j) // the state whose draw Intn(n) rejects
			for _, at := range []uint64{0, 1, 2, k / 2, k - 1, k, k + 1} {
				t.Run(fmt.Sprintf("n=%d/band%d/draw%d", n, j, at), func(t *testing.T) {
					s := p - at*gamma
					want, got := &RNG{state: s}, &RNG{state: s}
					replayIntn(want, n, int64(k))
					got.SkipIntn(n, int64(k))
					if got.state != want.state {
						t.Fatalf("state %#x, want %#x", got.state, want.state)
					}
					inWindow := at >= 1 && at <= k
					if rejected := want.state != s+k*gamma; rejected != inWindow {
						t.Fatalf("replay rejected a draw: %v, want %v", rejected, inWindow)
					}
				})
			}
		}
	}
}

// TestSkipIntnTwoRejectionsInWindow skips a window holding both
// preimages of Intn(7)'s two-output band, far too long to replay: the
// result must be the window's draws plus one retry per rejection.
func TestSkipIntnTwoRejectionsInWindow(t *testing.T) {
	const n = 7
	p1, p2 := unmix(^uint64(0)), unmix(^uint64(1))
	d := (p2 - p1) * gammaInv // draws from p1 to p2
	if d >= 1<<63 {
		p1, p2, d = p2, p1, -d
	}
	for _, p := range []uint64{p1, p2} {
		// Each rejected draw is followed by an accepted retry.
		if r := (&RNG{state: p}); r.Uint64() > ^uint64(0)-band(n) {
			t.Fatalf("retry after %#x is rejected too", p)
		}
	}
	s := p1 - gamma // draw 1 hits p1, draw d+1 hits p2
	k := int64(d) + 10
	r := &RNG{state: s}
	r.SkipIntn(n, k)
	if want := s + uint64(k+2)*gamma; r.state != want {
		t.Fatalf("state %#x, want %#x (k+2 draws)", r.state, want)
	}
}

func TestSkipIntnPanics(t *testing.T) {
	for _, c := range []struct {
		n int
		k int64
	}{{0, 1}, {-1, 1}, {7, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SkipIntn(%d, %d) did not panic", c.n, c.k)
				}
			}()
			NewRNG(1).SkipIntn(c.n, c.k)
		}()
	}
}

// BenchmarkSkipIntn skips 150,000 draws of Intn(127), the size of the
// longest fig3 settles, against replaying them.
func BenchmarkSkipIntn(b *testing.B) {
	const n, k = 127, 150000
	r := NewRNG(1)
	b.Run("jump", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.SkipIntn(n, k)
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayIntn(r, n, k)
		}
	})
}
