// Package cache is the content-addressed result cache for experiment
// table sets: every result in this reproduction is a pure function of
// (seed, config) — the determinism guarantee PR 1 established and every
// oracle since has re-verified — so a canonical serialization of the
// config is a complete address for the result. The package provides
//
//   - canonical keys: Enc serializes configs into a tagged,
//     length-prefixed byte form hashed with SHA-256 into a Key (FNV-1a
//     picks the LRU shard);
//   - a sharded in-memory LRU (2^k shards, per-shard mutex, intrusive
//     list, byte-budgeted eviction) with disk spill (length-prefixed,
//     checksummed entries under $INTERWEAVE_CACHE_DIR; a corrupt or
//     truncated entry is a miss, never an error);
//   - request coalescing: a panic-safe singleflight so duplicate
//     in-flight keys compute once and fan the bytes out.
//
// Determinism discipline: nothing here reads the wall clock, uses global
// randomness, or ranges over a map in a key or value path; cached bytes
// are returned exactly as stored, so cached and uncached runs are
// byte-identical.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
)

// Key is the content address of one cached value: a SHA-256 over the
// canonical serialization of everything the value depends on. The zero
// Key is reserved as "no key" (see IsZero) and is never stored.
type Key [sha256.Size]byte

// IsZero reports whether k is the reserved "no key" value.
func (k Key) IsZero() bool { return k == Key{} }

// String renders the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// shard maps the key onto one of n shards (n a power of two) via
// FNV-1a, so shard choice is independent of the SHA-256 prefix order
// entries happen to be inserted in.
func (k Key) shard(n int) int {
	h := fnv.New64a()
	h.Write(k[:])
	return int(h.Sum64() & uint64(n-1))
}

// Enc builds a canonical byte form incrementally and hashes it into a
// Key. Every field is written as
//
//	len(label) u32be | label | type tag | payload
//
// with variable-size payloads length-prefixed, so distinct field
// sequences can never collide by concatenation ambiguity. Labels make
// the form self-describing: reordering, renaming, or retyping a config
// field changes the key even when the raw values coincide.
type Enc struct {
	sum []byte // canonical bytes accumulated so far
}

// Type tags for Enc payloads.
const (
	tagStr  = 0x01
	tagU64  = 0x02
	tagI64  = 0x03
	tagF64  = 0x04
	tagBool = 0x05
	tagKey  = 0x06
	tagList = 0x07
)

// NewEnc returns an empty canonical encoder.
func NewEnc() *Enc { return &Enc{} }

func (e *Enc) label(l string, tag byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(l)))
	e.sum = append(e.sum, n[:]...)
	e.sum = append(e.sum, l...)
	e.sum = append(e.sum, tag)
}

func (e *Enc) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.sum = append(e.sum, b[:]...)
}

// Str writes a labelled string field.
func (e *Enc) Str(label, v string) *Enc {
	e.label(label, tagStr)
	e.u64(uint64(len(v)))
	e.sum = append(e.sum, v...)
	return e
}

// U64 writes a labelled unsigned integer field.
func (e *Enc) U64(label string, v uint64) *Enc {
	e.label(label, tagU64)
	e.u64(v)
	return e
}

// I64 writes a labelled signed integer field.
func (e *Enc) I64(label string, v int64) *Enc {
	e.label(label, tagI64)
	e.u64(uint64(v))
	return e
}

// Int writes a labelled int field.
func (e *Enc) Int(label string, v int) *Enc { return e.I64(label, int64(v)) }

// F64 writes a labelled float field by its exact IEEE-754 bits, so the
// encoding is total (NaN, ±0, subnormals) and never passes through a
// decimal rendering.
func (e *Enc) F64(label string, v float64) *Enc {
	e.label(label, tagF64)
	e.u64(math.Float64bits(v))
	return e
}

// Bool writes a labelled boolean field.
func (e *Enc) Bool(label string, v bool) *Enc {
	e.label(label, tagBool)
	if v {
		e.sum = append(e.sum, 1)
	} else {
		e.sum = append(e.sum, 0)
	}
	return e
}

// Key writes a labelled sub-key (composing keys, e.g. a kernel module's
// structural key inside the version salt).
func (e *Enc) Key(label string, k Key) *Enc {
	e.label(label, tagKey)
	e.sum = append(e.sum, k[:]...)
	return e
}

// Ints writes a labelled int slice (length-prefixed).
func (e *Enc) Ints(label string, vs []int) *Enc {
	e.label(label, tagList)
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.u64(uint64(int64(v)))
	}
	return e
}

// Strs writes a labelled string slice (length-prefixed, each element
// length-prefixed).
func (e *Enc) Strs(label string, vs []string) *Enc {
	e.label(label, tagList)
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.u64(uint64(len(v)))
		e.sum = append(e.sum, v...)
	}
	return e
}

// Sum hashes the canonical bytes accumulated so far into a Key. The
// encoder remains usable: further fields extend the same byte form.
func (e *Enc) Sum() Key { return Key(sha256.Sum256(e.sum)) }

// Fingerprint hashes the canonical bytes with FNV-1a into 64 bits — for
// compact salts and digests where a full Key is overkill.
func (e *Enc) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(e.sum)
	return h.Sum64()
}
