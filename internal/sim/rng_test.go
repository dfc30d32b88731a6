package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(11)
	s := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	mean := s / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	n := 200000
	s, s2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		s += v
		s2 += v * v
	}
	mean := s / float64(n)
	variance := s2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	n := 200000
	s := 0.0
	for i := 0; i < n; i++ {
		s += r.ExpFloat64()
	}
	mean := s / float64(n)
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestIntnDeterministicGolden(t *testing.T) {
	// The bounded-retry fix preserves the v % n mapping of accepted
	// draws, so for small n the stream matches the pre-fix generator.
	r := NewRNG(42)
	got := make([]int, 8)
	for i := range got {
		got[i] = r.Intn(100)
	}
	want := []int{13, 91, 58, 64, 50, 62, 25, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Intn stream[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestInt63nNoModuloBias(t *testing.T) {
	// n = 3<<61 makes the rejection region a quarter of the 64-bit draw
	// space: plain v % n would land in [0, 1<<61) with probability 3/8
	// instead of the uniform 1/3. The bounded retry must restore 1/3.
	const n = int64(3) << 61
	r := NewRNG(17)
	const samples = 200000
	low := 0
	for i := 0; i < samples; i++ {
		v := r.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if v < 1<<61 {
			low++
		}
	}
	frac := float64(low) / samples
	// Uniform: 1/3 ≈ 0.3333 (sd ≈ 0.0011). Biased modulo: 3/8 = 0.375.
	if math.Abs(frac-1.0/3) > 0.01 {
		t.Fatalf("P(v < n/3) = %.4f, want ~0.3333 (0.375 means modulo bias)", frac)
	}
}

func TestIntnLargeNMeanUnbiased(t *testing.T) {
	// Same bias check through Intn on a large half-open range: the
	// biased reduction drags the mean below n/2.
	const n = int(3) << 61
	r := NewRNG(23)
	const samples = 200000
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(r.Intn(n)) / float64(n)
	}
	mean := sum / samples
	// Uniform mean 0.5; biased modulo gives ~0.4583.
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("normalized mean = %.4f, want ~0.5", mean)
	}
}
