package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
)

// golden.json is the reference manifest: for every configuration the
// workloads run at the seeds it covers, the Table.Digest of each table
// and an FNV-1a hash of the rendered text a user receives (the CLI's
// stdout, the daemon's /result body). It was generated with
// -write-golden at the commit that introduced the benchmark; a change
// that moves any number therefore fails the benchmark instead of
// scoring.
//
//go:embed golden.json
var goldenJSON []byte

// entry is the reference output of one configuration.
type entry struct {
	Digests []string `json:"digests"`
	Text    string   `json:"text"`
}

func entryOf(tables []*core.Table) entry {
	e := entry{Text: textHash(render(tables))}
	for _, t := range tables {
		e.Digests = append(e.Digests, fmt.Sprintf("%016x", t.Digest()))
	}
	return e
}

// render is the text the CLI prints and the daemon's /result serves.
func render(tables []*core.Table) []byte {
	var b []byte
	for _, t := range tables {
		b = append(b, t.String()...)
		b = append(b, '\n')
	}
	return b
}

func textHash(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Observation kinds: how an output is compared with its reference.
const (
	// kindTables: the tables themselves, every digest plus the text.
	kindTables = "tables"
	// kindServe: a daemon response, its X-Result-Digest (the daemon's
	// fingerprint over the table digests) plus the body text.
	kindServe = "serve"
)

// want renders the reference in the form an observation of kind takes.
func (e entry) want(kind string) string {
	if kind == kindServe {
		enc := cache.NewEnc()
		for i, d := range e.Digests {
			v, _ := strconv.ParseUint(d, 16, 64) // written by entryOf as %016x
			enc.U64(fmt.Sprintf("table-%d", i), v)
		}
		return fmt.Sprintf("%016x %s", enc.Fingerprint(), e.Text)
	}
	return strings.Join(e.Digests, ",") + " " + e.Text
}

// checker collects output observations during the measured passes and
// compares them with their references afterwards, so reference work
// never lands inside a measurement.
type checker struct {
	mu      sync.Mutex
	seen    map[obsKey]int
	compute map[string]func() ([]*core.Table, error)
}

type obsKey struct{ name, kind, got string }

func newChecker() *checker {
	return &checker{seen: map[obsKey]int{}, compute: map[string]func() ([]*core.Table, error){}}
}

// observe records one output of configuration name. compute regenerates
// the reference on the default-width path when the manifest lacks name.
func (c *checker) observe(name, kind, got string, compute func() ([]*core.Table, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[obsKey{name, kind, got}]++
	if _, ok := c.compute[name]; !ok {
		c.compute[name] = compute
	}
}

// verify returns how many observed outputs differ from their reference.
func (c *checker) verify() (int, error) {
	golden := map[string]entry{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return 0, fmt.Errorf("golden.json: %w", err)
	}
	refs := map[string]entry{}
	for name, compute := range c.compute {
		e, ok := golden[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s not in golden.json; computing its reference\n", name)
			tables, err := compute()
			if err != nil {
				return 0, fmt.Errorf("reference %s: %w", name, err)
			}
			e = entryOf(tables)
		}
		refs[name] = e
	}
	bad := 0
	for k, n := range c.seen {
		if want := refs[k.name].want(k.kind); k.got != want {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d output(s) %q, reference %q\n", k.name, n, k.got, want)
			bad += n
		}
	}
	return bad, nil
}

// runConfig runs cfg through the registry at default width, the
// reference path.
func runConfig(cfg core.RunConfig) ([]*core.Table, error) {
	tables, _, err := (&core.Runner{}).Run(context.Background(), cfg, nil)
	return tables, err
}

// configName is a RunConfig's manifest key: the coordinates the
// workloads vary, without the code-version salt, so the manifest
// outlives changes that only move cache keys.
func configName(cfg core.RunConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d cpus=%d", cfg.Experiment, cfg.Seed, cfg.CPUs)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{cfg.Overheads, "overheads"}, {cfg.Granularity, "granularity"},
		{cfg.Mobility, "mobility"}, {cfg.MemStats, "memstats"}, {cfg.EPCC, "epcc"},
		{cfg.Sweep, "sweep"}, {cfg.Ablate, "ablate"}, {cfg.SmallAxes, "small-axes"},
	} {
		if f.on {
			b.WriteString(" " + f.name)
		}
	}
	return b.String()
}

// goldenSeeds are the seeds the manifest covers for suite-cold and
// fig3-wide; serve-mixed draws its seeds from serveSeedUniverse. At any
// other seed a suite-cold run also pays for its reference, a second
// suite at default width.
var goldenSeeds = func() []uint64 {
	var s []uint64
	for i := uint64(0); i < 64; i++ {
		s = append(s, i)
	}
	return s
}()

// writeGolden regenerates the manifest for every configuration the
// workloads can run at the covered seeds.
func writeGolden(path string) error {
	type job struct {
		name    string
		compute func() ([]*core.Table, error)
	}
	var jobs []job
	add := func(cfg core.RunConfig) {
		jobs = append(jobs, job{configName(cfg), func() ([]*core.Table, error) { return runConfig(cfg) }})
	}
	for _, seed := range goldenSeeds {
		for _, id := range core.ExperimentIDs() {
			add(suiteConfig(id, seed))
		}
		jobs = append(jobs, job{fig3WideName(seed), func() ([]*core.Table, error) {
			return []*core.Table{fig3WideTable(seed, 0, nil)}, nil
		}})
	}
	for _, seed := range serveSeedUniverse() {
		for _, v := range serveVariants {
			add(v.config(seed))
		}
	}
	entries, err := exp.Map(exp.New(0), len(jobs), func(i int) (entry, error) {
		tables, err := jobs[i].compute()
		if err != nil {
			return entry{}, fmt.Errorf("%s: %w", jobs[i].name, err)
		}
		return entryOf(tables), nil
	})
	if err != nil {
		return err
	}
	m := make(map[string]entry, len(jobs))
	for i, j := range jobs {
		m[j.name] = entries[i]
	}
	out, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d reference entries\n", len(m))
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
