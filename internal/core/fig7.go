package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig7 regenerates Figure 7: speedup from selective coherence
// deactivation for each PBBS-style benchmark on the dual-socket server
// platform, plus the interconnect energy reduction the paper reports in
// the text (~53%).
func (s *Stack) Fig7() *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Selective coherence deactivation (2 x 12-core server)",
		Header: []string{"benchmark", "speedup", "energy reduction", "deactivated accesses"},
	}
	benches := workloads.PBBS()
	type res struct {
		Sp, Es, Frac float64
	}
	var speedups, energySavings []float64
	results := runCells(s, "fig7", len(benches), func(i int) res {
		base := s.coherenceRun(benches[i], false, 0)
		fast := s.coherenceRun(benches[i], true, 0)
		return res{
			Sp:   float64(base.Stats.SumCycles()) / float64(fast.Stats.SumCycles()),
			Es:   1 - fast.Stats.InterconnectPJ/base.Stats.InterconnectPJ,
			Frac: float64(fast.Stats.DeactivatedAcc) / float64(fast.Stats.Accesses),
		}
	})
	for i, r := range results {
		speedups = append(speedups, r.Sp)
		energySavings = append(energySavings, r.Es)
		t.AddRow(benches[i].Name, f2(r.Sp), pct(r.Es), pct(r.Frac))
	}
	t.AddRow("average", f2(stats.Mean(speedups)), pct(stats.Mean(energySavings)), "")
	t.AddNote("paper: average speedup ~46%%, interconnect energy reduced ~53%% (scenario of Fig. 7)")
	return t
}

// DefaultFig7SweepCores is Fig7Sweep's core-count axis: the paper's
// server-scale points plus the 256–1024 range matching the sharded
// machine's reach. The top two points dominate the sweep's runtime.
var DefaultFig7SweepCores = []int{8, 16, 24, 48, 256, 1024}

// Fig7Sweep regenerates the §V-B scale claim: "the benefits grow with
// scale and disaggregation" — speedup as a function of core count and of
// cross-socket (disaggregation-like) latency.
func (s *Stack) Fig7Sweep() *Table {
	return s.Fig7SweepCores(DefaultFig7SweepCores)
}

// Fig7SweepCores is Fig7Sweep on an explicit core-count axis, so tests
// and quick runs can drop the expensive large-N points.
func (s *Stack) Fig7SweepCores(coreCounts []int) *Table {
	t := &Table{
		ID:     "fig7-sweep",
		Title:  "Deactivation benefit vs scale and disaggregation",
		Header: []string{"cores", "remote-latency x", "avg speedup", "avg energy reduction"},
	}
	latencies := []int64{1, 4}
	benches := workloads.PBBS()
	remote := s.Model.Coherence.RemoteSocket
	// One cell per (cores, benchmark) pair: the base and deactivated
	// systems run once, at 1x, and every remote latency is priced from
	// their crossing counts. The traces never read the latency Access
	// returns, so a run at latX x walks the same states and its cycle
	// sums are exactly what SumCyclesAt computes; energy does not
	// depend on the remote latency at all. Cells run concurrently and
	// are averaged in canonical order.
	type point struct {
		Sp []float64 // one speedup per latency
		En float64
	}
	nPer := len(benches)
	pts := runCells(s, "fig7-sweep", len(coreCounts)*nPer, func(i int) point {
		cores, b := coreCounts[i/nPer], benches[i%nPer]
		base := s.coherenceRun(b, false, cores).Stats
		fast := s.coherenceRun(b, true, cores).Stats
		p := point{En: 1 - fast.InterconnectPJ/base.InterconnectPJ}
		for _, latX := range latencies {
			r := latX * remote
			p.Sp = append(p.Sp, float64(base.SumCyclesAt(remote, r))/float64(fast.SumCyclesAt(remote, r)))
		}
		return p
	})
	for ci, cores := range coreCounts {
		for li, latX := range latencies {
			var sps, ens []float64
			for _, p := range pts[ci*nPer : (ci+1)*nPer] {
				sps = append(sps, p.Sp[li])
				ens = append(ens, p.En)
			}
			t.AddRow(i64(int64(cores)), fmt.Sprintf("%dx", latX),
				f2(stats.Mean(sps)), pct(stats.Mean(ens)))
		}
	}
	t.AddNote("higher remote latency models disaggregated memory; deactivation's benefit grows with both scale and distance")
	return t
}

// AblationSharingClasses isolates each sharing class's contribution by
// enabling deactivation for one class at a time (histogram benchmark).
func (s *Stack) AblationSharingClasses() *Table {
	t := &Table{
		ID:     "fig7-ablation",
		Title:  "Per-class contribution to deactivation benefit (histogram)",
		Header: []string{"classes deactivated", "speedup", "energy reduction"},
	}
	b := workloads.PBBS()[0] // histogram
	classes := []coherence.SharingClass{
		coherence.ClassPrivate, coherence.ClassReadOnly, coherence.ClassProducerConsumer,
	}
	// Cells return the two metrics the rows need rather than the whole
	// *coherence.System, so finished systems are not kept alive.
	type ablationMetrics struct {
		Cycles         int64
		InterconnectPJ float64
	}
	// Cells: baseline, full deactivation, then one per kept class. The
	// per-class ablation reuses the same trace but reclassifies regions,
	// handled by filtering inside each run.
	systems := runCells(s, "fig7-ablation", 2+len(classes), func(i int) ablationMetrics {
		var sys *coherence.System
		switch i {
		case 0:
			sys = s.coherenceRun(b, false, 0)
		case 1:
			sys = s.coherenceRun(b, true, 0)
		default:
			sys = coherence.New(s.coherenceConfig(true, 0))
			sys.FilterClass = classes[i-2]
			b.Run(sys, b.Scale, s.Seed)
		}
		return ablationMetrics{Cycles: sys.Stats.SumCycles(), InterconnectPJ: sys.Stats.InterconnectPJ}
	})
	base := systems[0]
	for i, sys := range systems[1:] {
		label := "all"
		if i > 0 {
			label = "only " + classes[i-1].String()
		}
		t.AddRow(label, f2(float64(base.Cycles)/float64(sys.Cycles)),
			pct(1-sys.InterconnectPJ/base.InterconnectPJ))
	}
	return t
}

// coherenceConfig is the Fig. 7 memory system. cores == 0 keeps the
// stack topology; otherwise cores split over two sockets (one socket
// below two cores).
func (s *Stack) coherenceConfig(deact bool, cores int) coherence.Config {
	cfg := coherence.DefaultConfig()
	cfg.Sockets = s.Topo.Sockets
	cfg.CoresPerSocket = s.Topo.CoresPerSocket
	if cores > 0 {
		cfg.Sockets = 2
		cfg.CoresPerSocket = cores / 2
		if cfg.CoresPerSocket == 0 {
			cfg.Sockets = 1
			cfg.CoresPerSocket = cores
		}
	}
	cfg.Deactivation = deact
	cfg.Costs = s.Model.Coherence
	return cfg
}

// coherenceRun replays b on a fresh Fig. 7 system (see coherenceConfig).
func (s *Stack) coherenceRun(b workloads.PBBSBench, deact bool, cores int) *coherence.System {
	sys := coherence.New(s.coherenceConfig(deact, cores))
	b.Run(sys, b.Scale, s.Seed)
	return sys
}
