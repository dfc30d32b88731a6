// Package sim provides the deterministic discrete-event simulation kernel
// that underpins every simulated substrate in this repository: a seeded
// random number generator, common sampling distributions, a monotonic
// cycle clock, and a priority event queue.
//
// All simulation in the repository is driven through this package so that
// every experiment is reproducible bit-for-bit from its seed. No wall-clock
// time ever enters a simulated result.
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based
// on splitmix64. It is not safe for concurrent use; give each simulated
// entity its own RNG (use Split) to keep results independent of goroutine
// scheduling.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, statistically independent generator from r. The
// derived generator's stream is a pure function of r's current state, so
// splitting is itself deterministic.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// SplitLabel derives an independent generator identified by a stable
// string label, without advancing r: the derived stream is a pure
// function of r's current state and the label, so streams for distinct
// labels can be created in any order (or lazily) and still match a run
// that created them in another order. The chaos harness uses this to
// give every fault-injection site its own replayable stream from one
// plan seed.
func (r *RNG) SplitLabel(label string) *RNG {
	// FNV-1a over the label, folded into the state and scrambled once
	// so labels differing in one byte land in unrelated streams.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	d := &RNG{state: r.state ^ h ^ 0x9e3779b97f4a7c15}
	d.state = d.Uint64()
	return d
}

// splitmix64's constants: gamma is the state increment, mulA and mulB
// the output mixer's multipliers. All are odd, so each has an inverse
// modulo 2^64, written as a literal so no process start computes it.
const (
	gamma    = 0x9e3779b97f4a7c15
	gammaInv = 0xf1de83e19937733d
	mulA     = 0xbf58476d1ce4e5b9
	mulAInv  = 0x96de1b173f119089
	mulB     = 0x94d049bb133111eb
	mulBInv  = 0x319642b2d24d8ec3
)

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * mulA
	z = (z ^ (z >> 27)) * mulB
	return z ^ (z >> 31)
}

// unmix inverts Uint64's output mixer: Uint64 returns v exactly when
// the state it advances to is unmix(v). Each xorshift is undone by
// xoring in further shifts of its output, each multiply by the
// multiplier's inverse.
func unmix(v uint64) uint64 {
	z := v ^ v>>31 ^ v>>62
	z *= mulBInv
	z ^= z>>27 ^ z>>54
	z *= mulAInv
	return z ^ z>>30 ^ z>>60
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.bounded(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.bounded(uint64(n)))
}

// bounded returns a uniform value in [0, n) by bounded retry: the top
// 2^64 mod n values of the draw space would over-weight the low residue
// classes under plain v % n, so draws landing there are rejected and
// retried. Accepted draws keep the v % n mapping, so for small n (where
// the rejection band is vanishingly thin) the output stream is the
// unbiased common case of the old modulo reduction.
func (r *RNG) bounded(n uint64) uint64 {
	thresh := -n % n // 2^64 mod n
	max := ^uint64(0) - thresh
	v := r.Uint64()
	for v > max {
		v = r.Uint64()
	}
	return v % n
}

// SkipIntn advances r exactly as k calls of Intn(n) would, discarding
// their results. It panics if n <= 0 or k < 0. With t = 2^64 mod n it
// takes O(min(k, t)) steps instead of O(k), plus O(t) for each rejected
// draw among the k (each draw is rejected with probability t/2^64).
//
// bounded rejects only the top t outputs, and draw i from now reads
// state + i·gamma. The mixer is a bijection, so a draw is rejected iff
// its state is the preimage p of a rejected output, and since gamma is
// odd each p falls at exactly one i = (p − state)·gammaInv. Until the
// first such i, every call takes one draw and the state advances by
// gamma each; the call that meets it runs for real and retries as
// Intn does.
func (r *RNG) SkipIntn(n int, k int64) {
	if n <= 0 || k < 0 {
		panic("sim: SkipIntn with non-positive n or negative k")
	}
	m := uint64(n)
	t := -m % m // 2^64 mod n
	if uint64(k) <= t {
		for ; k > 0; k-- {
			r.bounded(m)
		}
		return
	}
	for k > 0 {
		first := ^uint64(0) // the next draw Intn(n) rejects
		for j := uint64(0); j < t; j++ {
			if i := (unmix(^j) - r.state) * gammaInv; i >= 1 && i < first {
				first = i
			}
		}
		if first > uint64(k) {
			r.state += uint64(k) * gamma
			return
		}
		r.state += (first - 1) * gamma
		r.bounded(m)
		k -= int64(first)
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1).
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	return -math.Log(u)
}
