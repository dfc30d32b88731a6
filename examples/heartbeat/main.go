// Heartbeat example: run the TPAL-style work-stealing runtime on all
// three signaling substrates at a fine heartbeat (♥ = 20µs, 16 CPUs) and
// watch the Linux mechanisms fall behind while Nautilus holds the rate.
//
//	go run ./examples/heartbeat
package main

import (
	"fmt"

	"repro/internal/heartbeat"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	const (
		cpus          = 16
		heartbeatUS   = 20
		items         = 3_000_000
		cyclesPerItem = 40
		grain         = 64
	)
	mdl := model.Default()
	fmt.Printf("TPAL heartbeat runtime: %d CPUs, ♥ = %dµs, %d items x %d cycles\n\n",
		cpus, heartbeatUS, items, cyclesPerItem)
	fmt.Printf("%-15s %12s %12s %10s %10s %12s\n",
		"substrate", "target/Mcyc", "achieved", "gap CV", "overhead", "done (Mcyc)")

	for _, sub := range []heartbeat.Substrate{
		heartbeat.SubstrateNautilusIPI,
		heartbeat.SubstrateLinuxSignals,
		heartbeat.SubstrateLinuxPolling,
	} {
		eng := sim.NewEngine()
		m := machine.New(eng, mdl, machine.Topology{Sockets: 1, CoresPerSocket: cpus})
		cfg := heartbeat.DefaultConfig()
		cfg.Substrate = sub
		cfg.PeriodCycles = mdl.MicrosToCycles(heartbeatUS)
		rt := heartbeat.New(m, cfg)
		rt.Run(items, cyclesPerItem, grain)

		target := 1e6 / float64(cfg.PeriodCycles)
		achieved := stats.Mean(rt.AchievedRates())
		cv := stats.CoefVar(rt.InterBeatGaps())
		fmt.Printf("%-15s %12.1f %12.1f %10.3f %9.1f%% %12.1f\n",
			sub, target, achieved, cv,
			rt.OverheadFraction()*100, float64(rt.DoneAt())/1e6)
	}
	fmt.Println("\nNautilus delivers the target rate with near-zero jitter;")
	fmt.Println("Linux signals collapse below the kernel timer floor; polling")
	fmt.Println("holds the rate but pays 13-22% in compiler-inserted checks.")
}
