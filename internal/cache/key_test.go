package cache

import "testing"

// TestEncDeterministic pins that the same field sequence always yields
// the same key, across encoder instances.
func TestEncDeterministic(t *testing.T) {
	t.Parallel()
	mk := func() Key {
		return NewEnc().
			Str("experiment", "fig3").
			U64("seed", 42).
			I64("offset", -7).
			F64("period", 1000.5).
			Bool("chaos", false).
			Ints("cpus", []int{1, 2, 256}).
			Strs("kernels", []string{"cg", "mg"}).
			Sum()
	}
	if mk() != mk() {
		t.Fatal("identical field sequences produced different keys")
	}
}

// TestEncFieldSensitivity checks that every kind of change — value,
// label, type, order, slice split — changes the key.
func TestEncFieldSensitivity(t *testing.T) {
	t.Parallel()
	base := func() *Enc { return NewEnc().Str("a", "x").U64("n", 1) }
	ref := base().Sum()
	variants := map[string]Key{
		"value":       NewEnc().Str("a", "y").U64("n", 1).Sum(),
		"label":       NewEnc().Str("b", "x").U64("n", 1).Sum(),
		"type":        NewEnc().Str("a", "x").I64("n", 1).Sum(),
		"order":       NewEnc().U64("n", 1).Str("a", "x").Sum(),
		"extra field": base().Bool("z", false).Sum(),
	}
	for name, k := range variants {
		if k == ref {
			t.Errorf("%s change did not change the key", name)
		}
	}
	// Concatenation ambiguity: ["ab","c"] vs ["a","bc"] must differ.
	if NewEnc().Strs("s", []string{"ab", "c"}).Sum() == NewEnc().Strs("s", []string{"a", "bc"}).Sum() {
		t.Error("string-slice element boundaries are not encoded")
	}
	// Float bits, not decimal rendering: -0 and +0 differ as configs.
	neg := NewEnc().F64("f", negZero()).Sum()
	if pos := NewEnc().F64("f", 0).Sum(); pos == neg {
		t.Error("float encoding lost the sign of zero")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestEncIncremental pins that Sum is a prefix snapshot: extending the
// encoder after Sum yields the same key as encoding the full sequence
// at once.
func TestEncIncremental(t *testing.T) {
	t.Parallel()
	e := NewEnc().Str("a", "x")
	first := e.Sum()
	second := e.U64("n", 9).Sum()
	if first == second {
		t.Fatal("extending the encoder did not change the key")
	}
	if second != NewEnc().Str("a", "x").U64("n", 9).Sum() {
		t.Fatal("incremental and one-shot encodings disagree")
	}
}

// TestKeyShardStable pins shard selection: in range, stable, and spread
// across more than one shard for distinct keys.
func TestKeyShardStable(t *testing.T) {
	t.Parallel()
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		k := NewEnc().Int("i", i).Sum()
		s := k.shard(8)
		if s < 0 || s >= 8 {
			t.Fatalf("shard out of range: %d", s)
		}
		if s != k.shard(8) {
			t.Fatal("shard selection unstable")
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatal("all keys landed on one shard")
	}
}

func TestKeyZeroAndString(t *testing.T) {
	t.Parallel()
	var z Key
	if !z.IsZero() {
		t.Fatal("zero key not IsZero")
	}
	k := NewEnc().Str("a", "x").Sum()
	if k.IsZero() {
		t.Fatal("real key reported IsZero")
	}
	if len(k.String()) != 64 {
		t.Fatalf("hex key length = %d", len(k.String()))
	}
}

func TestFingerprint(t *testing.T) {
	t.Parallel()
	a := NewEnc().Str("a", "x").Fingerprint()
	if b := NewEnc().Str("a", "x").Fingerprint(); b != a {
		t.Fatal("fingerprint not deterministic")
	}
	if b := NewEnc().Str("a", "y").Fingerprint(); b == a {
		t.Fatal("fingerprint insensitive to value")
	}
}
