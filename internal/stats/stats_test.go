package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); !approx(g, 10, 1e-9) {
		t.Fatalf("geomean = %v, want 10", g)
	}
	// Non-positive values are skipped.
	if g := GeoMean([]float64{0, -5, 4, 9}); !approx(g, 6, 1e-9) {
		t.Fatalf("geomean with skips = %v, want 6", g)
	}
	if GeoMean([]float64{0, -1}) != 0 {
		t.Fatal("all-nonpositive geomean should be 0")
	}
}

func TestGeoMeanBetweenMinMaxProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // positive
		}
		g := GeoMean(xs)
		return g >= slices.Min(xs)-1e-9 && g <= slices.Max(xs)+1e-9 && g <= Mean(xs)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if v := Variance(xs); !approx(v, 32.0/7.0, 1e-9) {
		t.Fatalf("variance = %v", v)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-element variance should be 0")
	}
	if s := StdDev(xs); !approx(s*s, 32.0/7.0, 1e-9) {
		t.Fatalf("stddev = %v", s)
	}
}

func TestCoefVar(t *testing.T) {
	if CoefVar([]float64{5, 5, 5}) != 0 {
		t.Fatal("constant series should have zero CV")
	}
	if CoefVar([]float64{0, 0}) != 0 {
		t.Fatal("zero-mean CV should be 0")
	}
	cv := CoefVar([]float64{90, 110})
	if cv <= 0 || cv > 1 {
		t.Fatalf("cv = %v out of expected range", cv)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 4 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); !approx(p, 2.5, 1e-9) {
		t.Fatalf("p50 = %v, want 2.5", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(raw []uint8, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Add(-5)  // under
	h.Add(500) // over
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Count != 102 {
		t.Fatalf("count = %d", h.Count)
	}
	for i, b := range h.Buckets {
		if b != 10 {
			t.Fatalf("bucket %d = %d, want 10", i, b)
		}
	}
	med := h.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Fatalf("median estimate %v out of range", med)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(2)
	h.Add(4)
	if !approx(h.Mean(), 3, 1e-9) {
		t.Fatalf("histogram mean = %v", h.Mean())
	}
	h2 := NewHistogram(0, 10, 5)
	if h2.Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(10, 0, 5)
}
