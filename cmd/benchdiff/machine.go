package main

// The -machine leg benchmarks the discrete-event machine itself rather
// than a guest computation: the Fig 3 heartbeat workload at large
// simulated-CPU counts, recording the wall-clock scaling curve and each
// run's schedule digest in BENCH_machine.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/heartbeat"
)

type machinePoint struct {
	CPUs    int     `json:"cpus"`
	Domains int     `json:"domains"`
	Items   int64   `json:"items"`
	Ms      float64 `json:"ms"`
	Digest  string  `json:"digest"`
}

type machineReport struct {
	Points []machinePoint `json:"points"`
	CPU    string         `json:"cpu,omitempty"`
	Note   string         `json:"note"`
}

// machineDigest canonicalizes everything Fig 3 observes about a run
// into a core.Table and takes its content digest, so equal digests mean
// runs indistinguishable to the figures — the same digest the result
// cache uses as its integrity check.
func machineDigest(rt *heartbeat.Runtime) string {
	t := &core.Table{
		ID:     "machine-digest",
		Header: []string{"worker", "items", "work", "promotions", "steal hits", "steal attempts", "poll", "beats"},
	}
	t.AddNote("done=" + strconv.FormatInt(int64(rt.DoneAt()), 10))
	for i := 0; i < rt.NumWorkers(); i++ {
		ws := rt.WorkerStats(i)
		t.AddRow(strconv.Itoa(i), strconv.FormatInt(ws.Items, 10),
			strconv.FormatInt(ws.WorkCycles, 10), strconv.FormatInt(ws.Promotions, 10),
			strconv.FormatInt(ws.StealHits, 10), strconv.FormatInt(ws.StealAttempts, 10),
			strconv.FormatInt(ws.PollCycles, 10), strconv.Itoa(len(ws.Beats)))
	}
	return fmt.Sprintf("%016x", t.Digest())
}

// machineRun executes one heartbeat configuration and returns wall time
// plus the schedule digest.
func machineRun(cpus, domains int, items int64) (time.Duration, string) {
	s := core.NewStack(cpus)
	_, m := s.Build()
	hcfg := heartbeat.DefaultConfig()
	hcfg.Substrate = heartbeat.SubstrateNautilusIPI
	hcfg.PeriodCycles = s.Model.MicrosToCycles(20)
	hcfg.Seed = s.Seed
	hcfg.Domains = domains
	rt := heartbeat.New(m, hcfg)
	start := time.Now()
	rt.Run(items, 40, 32)
	return time.Since(start), machineDigest(rt)
}

func runMachine(out string) error {
	rep := machineReport{
		Note: "wall-clock ms are machine-dependent; the digest pins each run's schedule, " +
			"so a change that moves it changes what Fig 3 observes.",
	}
	// Carry the host CPU tag forward from an existing file, as the other
	// legs do for their pinned sections.
	if prev, err := os.ReadFile(out); err == nil {
		var old machineReport
		if json.Unmarshal(prev, &old) == nil {
			rep.CPU = old.CPU
		}
	}

	for _, cpus := range []int{64, 256, 512, 1024} {
		domains := cpus / 32
		if domains < 2 {
			domains = 2
		}
		items := core.Fig3SweepItems(cpus)
		fmt.Printf("bench machine cpus=%-5d domains=%-3d...", cpus, domains)
		d, digest := machineRun(cpus, domains, items)
		fmt.Printf(" %7.0f ms\n", float64(d.Microseconds())/1e3)
		rep.Points = append(rep.Points, machinePoint{
			CPUs:    cpus,
			Domains: domains,
			Items:   items,
			Ms:      round2(float64(d.Microseconds()) / 1e3),
			Digest:  digest,
		})
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
