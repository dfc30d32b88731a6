package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/heartbeat"
)

// TestDomainModeDigests pins the steal-domain-mode tables byte for byte
// at seed 42: the full-axis Fig 3 sweep, whose 256-1024 CPU points run
// in domain mode, and Fig 3 at 16 CPUs with 4 domains. The digest
// manifest trims the sweep to its small-N points, so without this test
// domain-mode tables would be pinned only by the heartbeat observables
// golden.
func TestDomainModeDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 8-1024 CPU sweep")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the plain test run covers it")
	}
	t.Parallel()
	cases := []struct {
		name string
		run  func(s *Stack) *Table
		want string
	}{
		{"fig3-sweep", func(s *Stack) *Table { return s.Fig3Sweep(20) }, "24d3b33a9dbb6184"},
		{"fig3 domains=4", func(s *Stack) *Table {
			cfg := DefaultFig3Config()
			cfg.Domains = 4
			return s.Fig3(cfg)
		}, "70f2a0b92de6972f"},
	}
	for _, c := range cases {
		s := NewStack(16)
		s.Seed = 42
		tab := c.run(s)
		if got := fmt.Sprintf("%016x", tab.Digest()); got != c.want {
			t.Errorf("%s: table digest %s, want %s\n%s", c.name, got, c.want, tab)
		}
	}
}

// TestHeartbeatScheduleDigests pins the heartbeat schedule of the Fig 3
// workload at 64-1024 simulated CPUs in domain mode (cpus/32 domains,
// at least 2; Nautilus IPIs at a 20 µs period). Each run's per-worker
// counters and stop time go into one Table, so a digest moves exactly
// when something Fig 3 observes about the schedule moves.
func TestHeartbeatScheduleDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow under the race detector; the plain test run covers it")
	}
	t.Parallel()
	for _, c := range []struct {
		cpus int
		want string
	}{
		{64, "063a00b581be42cb"},
		{256, "1b901e72a377332a"},
		{512, "5115ba954bca75b9"},
		{1024, "b7a9af9e9920ddb0"},
	} {
		s := NewStack(c.cpus)
		_, m := s.Build()
		hcfg := heartbeat.DefaultConfig()
		hcfg.Substrate = heartbeat.SubstrateNautilusIPI
		hcfg.PeriodCycles = s.Model.MicrosToCycles(20)
		hcfg.Seed = s.Seed
		hcfg.Domains = max(c.cpus/32, 2)
		rt := heartbeat.New(m, hcfg)
		rt.Run(Fig3SweepItems(c.cpus), 40, 32)

		tab := &Table{
			ID:     "machine-digest",
			Header: []string{"worker", "items", "work", "promotions", "steal hits", "steal attempts", "poll", "beats"},
		}
		tab.AddNote("done=" + strconv.FormatInt(int64(rt.DoneAt()), 10))
		for i := 0; i < rt.NumWorkers(); i++ {
			ws := rt.WorkerStats(i)
			tab.AddRow(strconv.Itoa(i), strconv.FormatInt(ws.Items, 10),
				strconv.FormatInt(ws.WorkCycles, 10), strconv.FormatInt(ws.Promotions, 10),
				strconv.FormatInt(ws.StealHits, 10), strconv.FormatInt(ws.StealAttempts, 10),
				strconv.FormatInt(ws.PollCycles, 10), strconv.Itoa(len(ws.Beats)))
		}
		if got := fmt.Sprintf("%016x", tab.Digest()); got != c.want {
			t.Errorf("%d CPUs: schedule digest %s, want %s", c.cpus, got, c.want)
		}
	}
}
