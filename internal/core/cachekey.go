package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"repro/internal/cache"
)

// VersionSalt does nothing and returns 0.
//
// Deprecated: RunConfig.Key hashes the result's coordinates alone, and
// the build stamp on every stored table set (BuildIdentity) is the one
// code-version guard. The function remains only because the frozen
// benchmark harness (perfbench/main.go, perfbench/serve.go) still calls
// it; delete it with the next change allowed to touch perfbench/.
func VersionSalt() uint64 { return 0 }

// tablesPayload is the cache value: a whole rendered table set plus
// per-table digests checked on the way back in, stamped with the
// BuildIdentity of the build that computed it.
type tablesPayload struct {
	Build   string
	Tables  []*Table
	Digests []uint64
}

// encodeTables serializes a table set with its digests under the build
// stamp build. Tables are plain strings, so gob cannot fail on them; an
// error is a programming error, panicking like any other driver fault.
func encodeTables(ts []*Table, build string) []byte {
	p := tablesPayload{Build: build, Tables: ts, Digests: make([]uint64, len(ts))}
	for i, t := range ts {
		p.Digests[i] = t.Digest()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		panic(fmt.Errorf("core: cache-encode tables: %w", err))
	}
	return buf.Bytes()
}

// decodeTables deserializes a cached table set and re-verifies every
// digest. Any failure (an entry that does not decode, one stamped by a
// build other than build, or a digest mismatch) is a miss, never an
// error: the caller recomputes and overwrites.
func decodeTables(b []byte, build string) ([]*Table, bool) {
	var p tablesPayload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil ||
		p.Build != build || len(p.Tables) != len(p.Digests) {
		return nil, false
	}
	for i, t := range p.Tables {
		if t.Digest() != p.Digests[i] {
			return nil, false
		}
	}
	return p.Tables, true
}

// LookupTables reads key's table set from c: one Get, which applies
// the build stamp and digest checks of decodeTables before it counts or
// promotes the entry. A miss, or an entry that fails a check, is
// reported as not found; the caller decides whether to recompute. The
// source is the tier that served the set (mem or disk).
func LookupTables(c *cache.Cache, key cache.Key) ([]*Table, cache.Source, bool) {
	var ts []*Table
	_, src, ok := c.Get(key, func(b []byte) bool {
		var valid bool
		ts, valid = decodeTables(b, BuildIdentity())
		return valid
	})
	return ts, src, ok
}

// CachedTablesCtx memoizes an entire driver invocation — the whole
// []*Table a RunConfig produces — under key: get, then on a miss
// generate and put. Runner.Run goes through it. Each table's Digest is
// stored alongside and re-verified on a hit; a mismatch (however a
// stored entry decayed into validity) is treated as a miss and
// recomputed, as is an entry another build stored (BuildIdentity). A
// nil cache or zero key just runs gen.
//
// Duplicate concurrent calls on one key each compute: neither this
// function nor the cache coalesces them. Its callers absorb duplicates
// above it: the experiment service's job registry joins equal
// submissions before they reach Runner.Run, and Runner shares one
// computation of a plain form's set among concurrent runs that need it
// (Runner.plainTables), so a plain job and its sub-report jobs compute
// the plain table once.
//
// The returned source is the tier that served the table set. The error
// is ctx's, when it ended before gen started; gen itself panics on
// driver faults and cancellation (the package's discipline), so a
// table set it did not finish is never stored.
func CachedTablesCtx(ctx context.Context, c *cache.Cache, key cache.Key, gen func() []*Table) ([]*Table, cache.Source, error) {
	if c == nil || key.IsZero() {
		return gen(), cache.SourceComputed, nil
	}
	if ts, src, ok := LookupTables(c, key); ok {
		return ts, src, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, cache.SourceComputed, err
	}
	ts := gen()
	c.Put(key, encodeTables(ts, BuildIdentity()))
	return ts, cache.SourceComputed, nil
}
