// Package stats provides the summary statistics used throughout the
// experiment harnesses: means, geometric means (the paper reports geomean
// overheads and speedups), percentiles, histograms, and jitter metrics for
// the heartbeat-rate experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (matching common benchmarking practice
// of excluding failed runs). Returns 0 if no positive values exist.
func GeoMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefVar returns the coefficient of variation (stddev/mean), the jitter
// metric used for heartbeat-rate stability. Returns 0 when the mean is 0.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It copies and sorts the
// input. Returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary is a one-shot description of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P50, P95, P99 float64
	Max                float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		Std:  StdDev(s),
		Min:  s[0],
		P50:  sortedPercentile(s, 50),
		P95:  sortedPercentile(s, 95),
		P99:  sortedPercentile(s, 99),
		Max:  s[len(s)-1],
	}
}

// String renders the summary compactly for experiment output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Histogram is a fixed-width-bucket histogram over [Lo, Hi). Samples
// outside the range are counted in Under/Over.
type Histogram struct {
	Lo, Hi      float64
	Buckets     []int64
	Under, Over int64
	Count       int64
	Sum         float64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int64, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Count++
	h.Sum += x
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i >= len(h.Buckets) {
			i = len(h.Buckets) - 1
		}
		h.Buckets[i]++
	}
}

// Mean returns the running mean of all added samples.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an approximate quantile (0..1) from bucket boundaries.
// Under/Over samples map to Lo and Hi respectively.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	acc := h.Under
	if acc > target {
		return h.Lo
	}
	w := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		if acc+c > target {
			// Interpolate within the bucket.
			frac := float64(target-acc) / float64(c)
			return h.Lo + (float64(i)+frac)*w
		}
		acc += c
	}
	return h.Hi
}
