package core

import (
	"fmt"

	"repro/internal/heartbeat"
	"repro/internal/stats"
)

// Fig3Config parameterizes the heartbeat-rate experiment.
type Fig3Config struct {
	CPUs int
	// PeriodsUS are the heartbeat targets ♥ in microseconds.
	PeriodsUS []float64
	// Items/CyclesPerItem/Grain shape the TPAL workload.
	Items         int64
	CyclesPerItem int64
	Grain         int64
	// Domains, when > 1, runs the heartbeat runtime in steal-domain
	// mode with that many domains. 0 keeps the legacy global-stealing
	// runtime.
	Domains int
}

// DefaultFig3Config matches the paper: 16 CPUs, ♥ ∈ {20 µs, 100 µs}.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		CPUs:          16,
		PeriodsUS:     []float64{20, 100},
		Items:         4_000_000,
		CyclesPerItem: 40,
		Grain:         64,
	}
}

// Fig3 regenerates Figure 3: achieved vs target heartbeat rate for
// Nautilus (LAPIC+IPI) and Linux (signals) at each ♥, plus rate
// stability (coefficient of variation of inter-beat gaps).
func (s *Stack) Fig3(cfg Fig3Config) *Table {
	t := &Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Achieved vs target heartbeat rate (%d CPUs)", cfg.CPUs),
		Header: []string{"substrate", "target ♥", "target rate/Mcyc", "achieved rate/Mcyc", "achieved/target", "gap CV"},
	}
	type cell struct {
		us  float64
		sub heartbeat.Substrate
	}
	var cs []cell
	for _, us := range cfg.PeriodsUS {
		for _, sub := range []heartbeat.Substrate{heartbeat.SubstrateNautilusIPI, heartbeat.SubstrateLinuxSignals} {
			cs = append(cs, cell{us, sub})
		}
	}
	for _, row := range runCells(s, "fig3", len(cs), func(i int) []string {
		c := cs[i]
		period := s.Model.MicrosToCycles(c.us)
		target := 1e6 / float64(period)
		rt := s.heartbeatRun(cfg, c.sub, period)
		achieved := stats.Mean(rt.AchievedRates())
		cv := stats.CoefVar(rt.InterBeatGaps())
		return []string{c.sub.String(), fmt.Sprintf("%.0fµs", c.us),
			f1(target), f1(achieved), f2(achieved / target), f2(cv)}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("paper: Nautilus hits the target with a consistent, stable rate at both 100µs and 20µs; the best Linux mechanism cannot sustain the rate even at 100µs and 16 CPUs")
	return t
}

// Fig3Overheads regenerates the §IV-B overhead comparison: TPAL
// scheduling overhead under the Nautilus interrupt substrate versus the
// best Linux mechanism (software polling), at ♥ = 100 µs.
func (s *Stack) Fig3Overheads(cfg Fig3Config) *Table {
	t := &Table{
		ID:     "fig3-overheads",
		Title:  "Heartbeat scheduling overhead (♥ = 100µs)",
		Header: []string{"substrate", "overhead", "promotions", "completion (Mcyc)"},
	}
	period := s.Model.MicrosToCycles(100)
	subs := []heartbeat.Substrate{
		heartbeat.SubstrateNautilusIPI,
		heartbeat.SubstrateLinuxPolling,
	}
	for _, row := range runCells(s, "fig3-overheads", len(subs), func(i int) []string {
		rt := s.heartbeatRun(cfg, subs[i], period)
		var promos int64
		for w := 0; w < rt.NumWorkers(); w++ {
			promos += rt.WorkerStats(w).Promotions
		}
		return []string{subs[i].String(), pct(rt.OverheadFraction()), i64(promos),
			f1(float64(rt.DoneAt()) / 1e6)}
	}) {
		t.AddRow(row...)
	}
	t.AddNote("paper: scheduling overheads are 13-22%% on Linux, and reduce to at most 4.9%% in Nautilus")
	return t
}

func (s *Stack) heartbeatRun(cfg Fig3Config, sub heartbeat.Substrate, period int64) *heartbeat.Runtime {
	_, m := s.WithCPUs(cfg.CPUs).Build()
	hcfg := heartbeat.DefaultConfig()
	hcfg.Substrate = sub
	hcfg.PeriodCycles = period
	hcfg.Seed = s.Seed
	hcfg.Domains = cfg.Domains
	rt := heartbeat.New(m, hcfg)
	rt.Run(cfg.Items, cfg.CyclesPerItem, cfg.Grain)
	return rt
}

// DefaultFig3SweepCounts is Fig3Sweep's CPU axis: the paper's original
// small-N points plus the 256–1024 range, which runs in steal-domain
// mode.
var DefaultFig3SweepCounts = []int{8, 16, 32, 64, 128, 256, 512, 1024}

// Fig3SweepDomains returns the steal-domain count used for a sweep
// point: one domain per 32 CPUs from 256 CPUs up, and the legacy
// single-domain runtime below that. Domains shape the schedule, and so
// the table: the count is a result coordinate, not a performance knob.
func Fig3SweepDomains(cpus int) int {
	if cpus < 256 {
		return 0
	}
	return cpus / 32
}

// Fig3SweepItems returns the workload size for a sweep point: the
// original fixed load, grown at large CPU counts so every worker still
// sees enough slices and beats for stable rate statistics.
func Fig3SweepItems(cpus int) int64 {
	if items := int64(cpus) * 8_000; items > 1_500_000 {
		return items
	}
	return 1_500_000
}

// Fig3Sweep regenerates the scale dimension of §IV-B over the default
// CPU axis: the Linux pacer serializes one pthread_kill per worker, so
// its achievable rate decays as CPUs grow, while the Nautilus IPI
// broadcast holds the target.
func (s *Stack) Fig3Sweep(periodUS float64) *Table {
	return s.Fig3SweepCounts(periodUS, DefaultFig3SweepCounts)
}

// Fig3SweepCounts is Fig3Sweep with an explicit CPU axis. Points at 256
// CPUs and above run in steal-domain mode (one domain per 32 CPUs) with
// a proportionally larger workload.
func (s *Stack) Fig3SweepCounts(periodUS float64, cpuCounts []int) *Table {
	t := &Table{
		ID:     "fig3-sweep",
		Title:  fmt.Sprintf("Heartbeat rate vs CPU count (♥ = %.0fµs)", periodUS),
		Header: []string{"CPUs", "nautilus achieved/target", "linux achieved/target"},
	}
	subs := []heartbeat.Substrate{heartbeat.SubstrateNautilusIPI, heartbeat.SubstrateLinuxSignals}
	// One cell per (CPU count, substrate) point; rows are assembled from
	// the index-ordered results, so output is identical at any pool width.
	ratios := runCells(s, "fig3-sweep", len(cpuCounts)*len(subs), func(i int) string {
		cfg := DefaultFig3Config()
		cfg.CPUs = cpuCounts[i/len(subs)]
		cfg.Items = Fig3SweepItems(cfg.CPUs)
		cfg.Domains = Fig3SweepDomains(cfg.CPUs)
		period := s.Model.MicrosToCycles(periodUS)
		target := 1e6 / float64(period)
		rt := s.heartbeatRun(cfg, subs[i%len(subs)], period)
		return f2(stats.Mean(rt.AchievedRates()) / target)
	})
	for ci, cpus := range cpuCounts {
		t.AddRow(i64(int64(cpus)), ratios[ci*len(subs)], ratios[ci*len(subs)+1])
	}
	t.AddNote("below ~32 CPUs the kernel timer floor binds; beyond it the pacer's serialized per-worker signaling compounds, while the LAPIC broadcast holds the target at every scale")
	return t
}
