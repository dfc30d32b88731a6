package core

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

// flips lists how TestUndeclaredFieldsInert moves each field other
// than the seed away from a base config; flipSeeds are the seeds it
// tries where the seed is undeclared.
var flips = []struct {
	f    field
	name string
	set  func(*RunConfig)
}{
	{fieldCPUs, "cpus=4", func(c *RunConfig) { c.CPUs = 4 }},
	{fieldChaos, "chaos_seed=9", func(c *RunConfig) {
		rates := chaos.DefaultConfig()
		rates.IPIDropProb, rates.TimerJitterMax = 0.2, 500
		c.ChaosSeed, c.Chaos = 9, &rates
	}},
	{fieldDomains, "domains=4", func(c *RunConfig) { c.Domains = 4 }},
	{fieldOverheads, "overheads", func(c *RunConfig) { c.Overheads = !c.Overheads }},
	{fieldGranularity, "granularity", func(c *RunConfig) { c.Granularity = !c.Granularity }},
	{fieldMobility, "mobility", func(c *RunConfig) { c.Mobility = !c.Mobility }},
	{fieldMemStats, "memstats", func(c *RunConfig) { c.MemStats = !c.MemStats }},
	{fieldEPCC, "epcc", func(c *RunConfig) { c.EPCC = !c.EPCC }},
	{fieldSweep, "sweep", func(c *RunConfig) { c.Sweep = !c.Sweep }},
	{fieldAblate, "ablate", func(c *RunConfig) { c.Ablate = !c.Ablate }},
	{fieldSmallAxes, "small_axes", func(c *RunConfig) { c.SmallAxes = !c.SmallAxes }},
}

var flipSeeds = []uint64{1, 7, 1<<40 + 3}

// rendered generates cfg's tables straight from the registry, with no
// cache and no key in between, and returns the bytes the CLI prints.
func rendered(cfg RunConfig) string {
	var b strings.Builder
	for _, t := range cfg.generate(Exec{}, false) {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestUndeclaredFieldsInert is the metamorphic check behind the
// registry table. For every experiment it starts from two base
// configs, the default and the small-axes `all` config with MemStats
// on, so every conditional declaration is seen both off and on. From
// each base it flips every field the entry leaves out, at each of three
// seeds where the seed is left out too, and the raw generate output
// must stay byte-identical. The flips share one run per seed because a
// run per field costs about 25 s, most of it fig7; on a mismatch the
// test flips the fields one at a time to name the read the entry
// misses. It also catches a driver that later starts reading a field
// its entry does not declare.
func TestUndeclaredFieldsInert(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment several times")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the plain test run covers it")
	}
	for _, id := range ExperimentIDs() {
		all := DefaultRunConfig(id).WithAll()
		all.MemStats = true
		for _, base := range []struct {
			name string
			cfg  RunConfig
		}{{"default", DefaultRunConfig(id)}, {"all", all}} {
			t.Run(id+"/"+base.name, func(t *testing.T) {
				t.Parallel()
				reads, ok := base.cfg.reads()
				if !ok {
					t.Fatalf("%s has no registry entry", id)
				}
				want := rendered(base.cfg)
				var moves []func(*RunConfig)
				var names []string
				for _, fl := range flips {
					if reads&fl.f == 0 {
						moves, names = append(moves, fl.set), append(names, fl.name)
					}
				}
				seeds := []uint64{base.cfg.Seed}
				if reads&fieldSeed == 0 {
					seeds = flipSeeds
				}
				for _, seed := range seeds {
					cfg := base.cfg
					cfg.Seed = seed
					for _, move := range moves {
						move(&cfg)
					}
					if got, _ := cfg.reads(); got != reads {
						t.Fatalf("flipping %v changes the declared fields", names)
					}
					if rendered(cfg) == want {
						continue
					}
					culprits := bisectFlips(base.cfg, seed, moves, names, want)
					t.Errorf("seed %d, flipped %v: tables change; undeclared reads: %v", seed, names, culprits)
				}
			})
		}
	}
}

// bisectFlips names the single flips (the seed change among them) that
// move base's tables away from want; none means only their combination
// does.
func bisectFlips(base RunConfig, seed uint64, moves []func(*RunConfig), names []string, want string) []string {
	var culprits []string
	if seed != base.Seed {
		cfg := base
		cfg.Seed = seed
		if rendered(cfg) != want {
			culprits = append(culprits, "seed")
		}
	}
	for i, move := range moves {
		cfg := base
		move(&cfg)
		if rendered(cfg) != want {
			culprits = append(culprits, names[i])
		}
	}
	if culprits == nil {
		culprits = []string{"only the combination"}
	}
	return culprits
}

// TestKeyFollowsDeclaredFields pins what Key hashes. From both base
// configs of every experiment, flipping a field the entry declares
// moves the key and flipping one it leaves out keeps it; the projection
// is a valid config and projects to itself.
func TestKeyFollowsDeclaredFields(t *testing.T) {
	t.Parallel()
	for _, id := range ExperimentIDs() {
		all := DefaultRunConfig(id).WithAll()
		all.MemStats = true
		for _, base := range []RunConfig{DefaultRunConfig(id), all} {
			reads, _ := base.reads()
			key := base.Key()
			p := base.coords()
			if err := p.Validate(); err != nil {
				t.Errorf("%s: projection %+v invalid: %v", id, p, err)
			}
			if p.coords() != p || p.Key() != key {
				t.Errorf("%s: projection %+v is not a fixed point of coords with base's key", id, p)
			}
			for _, fl := range flips {
				cfg := base
				fl.set(&cfg)
				if moved, declared := cfg.Key() != key, reads&fl.f != 0; moved != declared {
					t.Errorf("%s from %+v: %s moves the key %v, declared %v", id, base, fl.name, moved, declared)
				}
			}
			for _, seed := range flipSeeds {
				cfg := base
				cfg.Seed = seed
				if moved, declared := cfg.Key() != key, reads&fieldSeed != 0; moved != declared {
					t.Errorf("%s from %+v: seed %d moves the key %v, declared %v", id, base, seed, moved, declared)
				}
			}
		}
	}
}

// TestInertChaosRatesShareKey pins what the key keeps of a chaos plan:
// the machine-layer rates ArmChaos reads. For every experiment that
// declares the plan, setting the alloc, wake and step rates of an
// armed config leaves its tables and its key unchanged.
func TestInertChaosRatesShareKey(t *testing.T) {
	t.Parallel()
	inert := chaos.DefaultConfig()
	inert.AllocFailProb, inert.AllocBudget = 1, 1
	inert.WakeDelayProb, inert.WakeDelayMax = 1, 1e6
	inert.MaxSteps = 1
	for _, id := range ExperimentIDs() {
		base := DefaultRunConfig(id)
		if reads, _ := base.reads(); reads&fieldChaos == 0 {
			continue
		}
		base.ChaosSeed = 9
		cfg := base
		cfg.Chaos = &inert
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if cfg.Key() != base.Key() {
			t.Errorf("%s: alloc, wake and step rates move the key", id)
		}
		if rendered(cfg) != rendered(base) {
			t.Errorf("%s: alloc, wake and step rates change the tables", id)
		}
	}
}
