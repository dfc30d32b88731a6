package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coherence"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// fig7SweepReference is Fig7SweepCores as it was before the latency axis
// was priced: every (cores, latency, benchmark) point reruns the base and
// deactivated traces with RemoteSocket scaled by latX.
func fig7SweepReference(s *Stack, coreCounts []int) *Table {
	t := &Table{
		ID:     "fig7-sweep",
		Title:  "Deactivation benefit vs scale and disaggregation",
		Header: []string{"cores", "remote-latency x", "avg speedup", "avg energy reduction"},
	}
	run := func(b workloads.PBBSBench, deact bool, cores int, latX int64) coherence.Stats {
		cfg := s.coherenceConfig(deact, cores)
		cfg.Costs.RemoteSocket *= latX
		sys := coherence.New(cfg)
		b.Run(sys, b.Scale, s.Seed)
		return sys.Stats
	}
	for _, cores := range coreCounts {
		for _, latX := range []int64{1, 4} {
			var sps, ens []float64
			for _, b := range workloads.PBBS() {
				base := run(b, false, cores, latX)
				fast := run(b, true, cores, latX)
				sps = append(sps, float64(base.SumCycles())/float64(fast.SumCycles()))
				ens = append(ens, 1-fast.InterconnectPJ/base.InterconnectPJ)
			}
			t.AddRow(i64(int64(cores)), fmt.Sprintf("%dx", latX),
				f2(stats.Mean(sps)), pct(stats.Mean(ens)))
		}
	}
	t.AddNote("higher remote latency models disaggregated memory; deactivation's benefit grows with both scale and distance")
	return t
}

// TestFig7SweepMatchesRerunReference pins the priced sweep to the rerun
// reference on a core axis the digest manifest does not cover (one
// 1-core-per-socket point included), at two seeds.
func TestFig7SweepMatchesRerunReference(t *testing.T) {
	t.Parallel()
	axis := []int{2, 6, 10}
	for _, seed := range []uint64{42, 9} {
		s := ServerStack()
		s.Seed = seed
		got, want := s.Fig7SweepCores(axis), fig7SweepReference(s, axis)
		if got.Digest() != want.Digest() {
			t.Fatalf("seed %d: priced sweep\n%s\nrerun reference\n%s", seed, got, want)
		}
	}
}

// TestFig7SharedRunsMatchFreshStacks runs Fig7, the small-axis sweep and
// the ablation on one stack, at width 2 so cells wait on each other's
// runs, and checks each table against the same driver on its own fresh
// stack without a run memo. The shared stack must simulate 51 distinct
// systems for the 65 runs asked: the sweep's 24-core point repeats
// Fig7's 12, and the ablation's first two cells repeat Fig7's histogram
// pair.
func TestFig7SharedRunsMatchFreshStacks(t *testing.T) {
	t.Parallel()
	if testing.Short() || raceEnabled {
		t.Skip("replays the fig7 suite twice; TestCoherenceRunsConcurrentAskers covers the memo under -race")
	}
	axis := []int{8, 16, 24, 48}
	shared := ServerStack()
	shared.Parallel = 2
	got := []*Table{shared.Fig7(), shared.Fig7SweepCores(axis), shared.AblationSharingClasses()}
	if n := len(shared.coherenceRuns.runs); n != 51 {
		t.Fatalf("shared stack simulated %d distinct systems, want 51", n)
	}
	fresh := func() *Stack {
		s := ServerStack()
		s.coherenceRuns = nil
		return s
	}
	want := []*Table{fresh().Fig7(), fresh().Fig7SweepCores(axis), fresh().AblationSharingClasses()}
	for i := range want {
		if got[i].Digest() != want[i].Digest() {
			t.Fatalf("%s on a shared stack\n%s\non a fresh stack\n%s", want[i].ID, got[i], want[i])
		}
	}
}

// TestCoherenceRunsKeys checks that memory systems differing in any
// input to their Stats never share a memo entry: deactivation, the
// ablation filter, the core count, the cost model and the seed. The
// 24-core sweep point is the stack's own 2 x 12 system and does share.
func TestCoherenceRunsKeys(t *testing.T) {
	base := ServerStack()
	computes := 0
	probe := workloads.PBBSBench{Name: "probe", Scale: 1, Run: func(sys *coherence.System, _ int, _ uint64) {
		computes++
		sys.Stats.Accesses = uint64(computes)
	}}
	ask := func(s *Stack, deact bool, cores int, filter coherence.SharingClass) uint64 {
		return s.coherenceStats(probe, deact, cores, filter).Accesses
	}
	seeded, costly := *base, *base // same memo, other inputs
	seeded.Seed = 9
	costly.Model.Coherence.RemoteSocket *= 4
	variants := []struct {
		name   string
		s      *Stack
		deact  bool
		cores  int
		filter coherence.SharingClass
	}{
		{"base", base, false, 0, coherence.ClassDefault},
		{"deactivation", base, true, 0, coherence.ClassDefault},
		{"filter", base, true, 0, coherence.ClassPrivate},
		{"other filter", base, true, 0, coherence.ClassReadOnly},
		{"cores", base, false, 48, coherence.ClassDefault},
		{"costs", &costly, false, 0, coherence.ClassDefault},
		{"seed", &seeded, false, 0, coherence.ClassDefault},
	}
	for i, v := range variants {
		if got := ask(v.s, v.deact, v.cores, v.filter); got != uint64(i+1) {
			t.Fatalf("%s: served compute %d, want a fresh compute %d", v.name, got, i+1)
		}
	}
	for i, v := range variants {
		if got := ask(v.s, v.deact, v.cores, v.filter); got != uint64(i+1) {
			t.Fatalf("%s asked again: served compute %d, want its own %d", v.name, got, i+1)
		}
	}
	if got := ask(base, false, 24, coherence.ClassDefault); got != 1 {
		t.Fatalf("24-core point served compute %d, want the 2 x 12 base's 1", got)
	}
	if computes != len(variants) {
		t.Fatalf("%d computes for %d distinct systems", computes, len(variants))
	}
}

// TestCoherenceRunsConcurrentAskers asks one key from many goroutines at
// once: one compute, and every asker gets its Stats. A compute that
// panics leaves the next asker to run its own.
func TestCoherenceRunsConcurrentAskers(t *testing.T) {
	m := newCoherenceRuns()
	k := coherenceKey{bench: "probe"}
	var computes atomic.Int64
	release := make(chan struct{})
	run := func() coherence.Stats {
		computes.Add(1)
		<-release
		return coherence.Stats{Accesses: 7, Cycles: []int64{1, 2}}
	}
	const askers = 8
	got := make([]coherence.Stats, askers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.get(k, run)
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for one key", n)
	}
	for i, st := range got {
		if st.Accesses != 7 || fmt.Sprint(st.Cycles) != "[1 2]" {
			t.Fatalf("asker %d got %+v", i, st)
		}
	}

	bad := coherenceKey{bench: "panics"}
	func() {
		defer func() { _ = recover() }()
		m.get(bad, func() coherence.Stats { panic("compute failed") })
	}()
	if st := m.get(bad, func() coherence.Stats { return coherence.Stats{Accesses: 3} }); st.Accesses != 3 {
		t.Fatalf("after a failed compute, asker got %+v", st)
	}
}
