package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/heartbeat"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

// runDomainHeartbeat drives the heartbeat runtime in steal-domain mode
// under an armed chaos plan, with a frame-conservation invariant hook
// scoped to every IPI and timer site, so each consult fires the checker
// for the one domain the faulted CPU belongs to.
func runDomainHeartbeat(t *testing.T, seed uint64) (string, *chaos.Plan) {
	t.Helper()
	const cpus, domains = 8, 4
	plan := chaos.NewPlan(seed, chaos.DefaultConfig())
	m := machine.New(sim.NewEngine(), model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: cpus})
	core.ArmChaos(m, plan)

	hcfg := heartbeat.DefaultConfig()
	hcfg.Substrate = heartbeat.SubstrateNautilusIPI
	hcfg.PeriodCycles = 20_000
	hcfg.Seed = seed
	hcfg.Domains = domains
	rt := heartbeat.New(m, hcfg)
	checks := 0
	for cpu := 0; cpu < cpus; cpu++ {
		// Worker i runs on CPU i and belongs to domain i*D/n.
		d := cpu * domains / cpus
		check := func() error {
			checks++
			return rt.CheckDomainInvariants(d)
		}
		plan.OnSiteInvariant(fmt.Sprintf("machine/ipi/cpu%d", cpu), "frame-conservation", check)
		plan.OnSiteInvariant(fmt.Sprintf("machine/timer/cpu%d", cpu), "frame-conservation", check)
	}

	const items = 60_000
	rt.Run(items, 40, 32)

	var done int64
	for w := 0; w < rt.NumWorkers(); w++ {
		done += rt.WorkerStats(w).Items
	}
	if done != items {
		t.Fatalf("lost work under IPI faults: %d of %d items done", done, items)
	}
	if checks == 0 {
		t.Fatal("no site-scoped invariant hook ran")
	}
	return fmt.Sprintf("doneAt=%d trace=%s", rt.DoneAt(), plan.TraceString()), plan
}

// TestDomainInvariantHooksReplay: in steal-domain mode under IPI and
// timer faults, the site-scoped frame-conservation hooks fire and find
// no violations, and a second run of the same seed replays the
// completion time and fault trace byte for byte.
func TestDomainInvariantHooksReplay(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{3, 17} {
		out, plan := runDomainHeartbeat(t, seed)
		again, _ := runDomainHeartbeat(t, seed)
		if out != again {
			t.Fatalf("seed %d: replay diverges\nfirst:  %.400s\nsecond: %.400s", seed, out, again)
		}
		if plan.Faults() == 0 {
			t.Fatalf("seed %d: chaos plan injected nothing; the invariant hooks were never exercised", seed)
		}
		if v := plan.Violations(); len(v) != 0 {
			t.Fatalf("seed %d: frame conservation violated under IPI faults: %v", seed, v)
		}
	}
}
