package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/workloads"
)

// cacheSchemaVersion is folded into every key via the version salt.
// Bump it when cached value encodings or driver semantics change in a
// way the salt's structural inputs (cost tables, kernel modules,
// platform models) cannot see — stale on-disk entries then miss instead
// of serving the old results.
//
// v2: the runnable-job registry (RunConfig.Key) replaced the CLI's
// ad-hoc experiment keys, and chaos keys carry the effective (possibly
// overridden) fault config.
//
// v3: RunConfig.Key hashes the config's projection onto its
// experiment's declared fields (RunConfig.coords), so a key names a
// result rather than a request.
const cacheSchemaVersion = 3

// VersionSalt is the code-version component of every cache key: an
// FNV-1a fingerprint over the schema version, the interpreter cost
// table, the platform models, and the structure of every CARAT kernel
// module (functions, blocks, opcode streams). Editing any of those
// generators changes the salt, so results cached by an older build can
// never alias the new build's.
func VersionSalt() uint64 { return versionSalt() }

var versionSalt = sync.OnceValue(func() uint64 {
	e := cache.NewEnc()
	e.U64("schema", cacheSchemaVersion)
	e.Str("costs", fmt.Sprintf("%+v", interp.DefaultCosts()))
	e.Str("models", modelsFingerprint())
	for _, k := range workloads.CARATSuite() {
		e.Str("kernel", k.Name)
		e.Str("entry", k.Entry)
		e.U64("want", k.Want)
		e.Key("module", moduleKey(k.Build()))
	}
	return e.Fingerprint()
})

// modelsFingerprint renders every platform model the stacks build on.
// The models are plain numeric structs, so %+v is a total, canonical
// rendering.
func modelsFingerprint() string {
	return fmt.Sprintf("default=%+v knl=%+v server=%+v riscv=%+v",
		model.Default(), model.KNL(), model.Server(), model.RISCV())
}

// moduleKey canonicalizes an IR module's structure: functions in
// deterministic Functions() order, blocks in layout order, and each
// instruction's full operand set. Any compiler-side change to kernel
// generation lands here.
func moduleKey(m *ir.Module) cache.Key {
	e := cache.NewEnc()
	e.Str("module", m.Name)
	for _, f := range m.Functions() {
		e.Str("func", f.Name)
		e.Int("params", f.NumParams)
		e.Int("regs", f.NumRegs)
		for _, b := range f.Blocks {
			e.Str("block", b.Name)
			for _, in := range b.Instrs {
				e.Str("op", in.Op.String())
				e.Int("dst", int(in.Dst))
				e.Int("a", int(in.A))
				e.Int("b", int(in.B))
				e.I64("imm", in.Imm)
				e.F64("fimm", in.FImm)
				e.Int("pred", int(in.Pred))
				e.Bool("region", in.Region)
				e.Str("callee", in.Callee)
				args := make([]int, len(in.Args))
				for i, r := range in.Args {
					args[i] = int(r)
				}
				e.Ints("args", args)
				if in.Target != nil {
					e.Str("target", in.Target.Name)
				}
				if in.Else != nil {
					e.Str("else", in.Else.Name)
				}
			}
		}
	}
	return e.Sum()
}

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
// digest. Any failure (an entry stamped by a build other than build, an
// entry written under an encoding the salt could not distinguish, or a
// digest mismatch) is a miss, never an error: the caller recomputes
// and overwrites.
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

// LookupTables reads key's table set from c: one Get, then the build
// stamp and digest checks of decodeTables. A miss, or an entry that
// fails a check, is reported as not found; the caller decides whether
// to recompute. The source is the tier that served the set (mem or
// disk).
func LookupTables(c *cache.Cache, key cache.Key) ([]*Table, cache.Source, bool) {
	buf, src, ok := c.Get(key)
	if !ok {
		return nil, src, false
	}
	ts, ok := decodeTables(buf, BuildIdentity())
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
// Duplicate concurrent calls on one key each compute: the cache does
// not coalesce them. Its callers absorb duplicates above it (the
// experiment service's job registry joins equal submissions before
// they reach Runner.Run).
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
