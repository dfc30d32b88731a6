package sim

import "math"

// Dist is a sampling distribution over non-negative cycle counts or
// latencies. Implementations must be deterministic given the RNG stream.
type Dist interface {
	// Sample draws one value using r.
	Sample(r *RNG) float64
	// Mean returns the distribution's analytic mean.
	Mean() float64
}

// Normal is a normal distribution truncated at Min (samples below Min are
// clamped). It models moderately noisy costs such as cache-dependent
// handler paths.
type Normal struct {
	Mu, Sigma float64
	Min       float64
}

// Sample draws a truncated normal deviate.
func (n Normal) Sample(r *RNG) float64 {
	v := n.Mu + n.Sigma*r.NormFloat64()
	if v < n.Min {
		return n.Min
	}
	return v
}

// Mean returns the untruncated mean; for the small truncation levels used
// in the cost models the bias is negligible.
func (n Normal) Mean() float64 { return n.Mu }

// Exponential is a shifted exponential distribution: Offset plus an
// exponential with the given Mean (of the exponential part). It models
// queueing-style delays such as run-queue wakeups.
type Exponential struct {
	Offset  float64
	MeanExp float64
}

// Sample draws Offset + Exp(MeanExp).
func (e Exponential) Sample(r *RNG) float64 {
	return e.Offset + e.MeanExp*r.ExpFloat64()
}

// Mean returns Offset + MeanExp.
func (e Exponential) Mean() float64 { return e.Offset + e.MeanExp }

// Pareto is a bounded Pareto distribution with shape Alpha on [Lo, Hi].
// It models heavy-tailed OS noise: most samples near Lo, rare samples
// orders of magnitude larger (e.g. Linux scheduler interference, SMIs).
type Pareto struct {
	Alpha  float64
	Lo, Hi float64
}

// Sample draws a bounded Pareto deviate via inverse transform sampling.
func (p Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	la := math.Pow(p.Lo, p.Alpha)
	ha := math.Pow(p.Hi, p.Alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
	if x < p.Lo {
		x = p.Lo
	}
	if x > p.Hi {
		x = p.Hi
	}
	return x
}

// Mean returns the analytic mean of the bounded Pareto distribution.
func (p Pareto) Mean() float64 {
	if p.Alpha == 1 {
		return p.Lo * p.Hi / (p.Hi - p.Lo) * math.Log(p.Hi/p.Lo)
	}
	la := math.Pow(p.Lo, p.Alpha)
	return la / (1 - math.Pow(p.Lo/p.Hi, p.Alpha)) * (p.Alpha / (p.Alpha - 1)) *
		(1/math.Pow(p.Lo, p.Alpha-1) - 1/math.Pow(p.Hi, p.Alpha-1))
}
