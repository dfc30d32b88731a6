package sim

import (
	"math"
	"testing"
)

func sampleMean(d Dist, r *RNG, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += d.Sample(r)
	}
	return s / float64(n)
}

func TestNormalMeanAndTruncation(t *testing.T) {
	d := Normal{Mu: 100, Sigma: 10, Min: 0}
	r := NewRNG(2)
	m := sampleMean(d, r, 100000)
	if math.Abs(m-100) > 0.5 {
		t.Fatalf("normal sample mean = %v, want ~100", m)
	}
	// Heavy truncation: all samples clamped at Min.
	d2 := Normal{Mu: -1000, Sigma: 1, Min: 5}
	for i := 0; i < 100; i++ {
		if v := d2.Sample(r); v != 5 {
			t.Fatalf("truncation failed: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{Offset: 50, MeanExp: 25}
	r := NewRNG(3)
	m := sampleMean(d, r, 200000)
	if math.Abs(m-d.Mean()) > 1.0 {
		t.Fatalf("exp sample mean = %v, want ~%v", m, d.Mean())
	}
	if d.Mean() != 75 {
		t.Fatalf("analytic mean = %v, want 75", d.Mean())
	}
}

func TestParetoBoundsAndMean(t *testing.T) {
	d := Pareto{Alpha: 1.5, Lo: 10, Hi: 10000}
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < d.Lo || v > d.Hi {
			t.Fatalf("pareto sample out of bounds: %v", v)
		}
	}
	m := sampleMean(d, NewRNG(5), 400000)
	if rel := math.Abs(m-d.Mean()) / d.Mean(); rel > 0.05 {
		t.Fatalf("pareto sample mean %v vs analytic %v (rel err %v)", m, d.Mean(), rel)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A heavy-tailed distribution should occasionally produce samples far
	// above the median — the OS-noise property the Linux model relies on.
	d := Pareto{Alpha: 1.2, Lo: 100, Hi: 1e6}
	r := NewRNG(6)
	big := 0
	for i := 0; i < 100000; i++ {
		if d.Sample(r) > 10000 {
			big++
		}
	}
	if big == 0 {
		t.Fatal("no tail samples observed")
	}
	if big > 20000 {
		t.Fatalf("too many tail samples (%d); not Pareto-like", big)
	}
}
