package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/heartbeat"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// heartbeatDigest reduces a finished heartbeat run to a canonical string
// of everything the figures observe: completion time and every worker's
// item, promotion, steal, and beat record. Two runs that produce equal
// digests are indistinguishable to every Fig 3 metric.
func heartbeatDigest(rt *heartbeat.Runtime) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "done=%d\n", rt.DoneAt())
	for i := 0; i < rt.NumWorkers(); i++ {
		ws := rt.WorkerStats(i)
		fmt.Fprintf(&sb, "w%d items=%d work=%d promo=%d steals=%d/%d polls=%d beats=%v\n",
			i, ws.Items, ws.WorkCycles, ws.Promotions, ws.StealHits, ws.StealAttempts,
			ws.PollCycles, ws.Beats)
	}
	return sb.String()
}

// TestHeartbeatDomainOracle is the stack-level equivalence oracle for
// the sharded engine: the Fig 3 heartbeat workload in steal-domain mode
// produces byte-identical per-worker traces whether the machine is
// built on the sequential engine (Shards pinned to 1) or the sharded
// engine (one shard per domain) — across every substrate, with and
// without an armed chaos plan.
func TestHeartbeatDomainOracle(t *testing.T) {
	t.Parallel()
	subs := []heartbeat.Substrate{
		heartbeat.SubstrateNautilusIPI,
		heartbeat.SubstrateLinuxSignals,
		heartbeat.SubstrateLinuxPolling,
	}
	for _, sub := range subs {
		for _, chaosSeed := range []uint64{0, 99} {
			run := func(shards int) string {
				s := NewStack(16)
				s.ChaosSeed = chaosSeed
				s.Shards = shards
				cfg := DefaultFig3Config()
				cfg.Items = 150_000
				cfg.Domains = 4
				rt := s.heartbeatRun(cfg, sub, s.Model.MicrosToCycles(20))
				return heartbeatDigest(rt)
			}
			seq := run(1)
			sharded := run(0)
			if seq != sharded {
				t.Fatalf("%v chaos=%d: sharded run diverges from sequential oracle\nsequential:\n%.600s\nsharded:\n%.600s",
					sub, chaosSeed, seq, sharded)
			}
		}
	}
}

// TestFig3TableDomainOracle checks the same equivalence one level up:
// the rendered Fig 3 table JSON is byte-identical between engines when
// the sweep runs in domain mode.
func TestFig3TableDomainOracle(t *testing.T) {
	t.Parallel()
	run := func(shards int) string {
		s := NewStack(16)
		s.Shards = shards
		cfg := DefaultFig3Config()
		cfg.Items = 150_000
		cfg.Domains = 4
		return s.Fig3(cfg).JSON()
	}
	if seq, sharded := run(1), run(0); seq != sharded {
		t.Fatalf("fig3 table diverges between engines:\n%s\nvs\n%s", seq, sharded)
	}
}

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
