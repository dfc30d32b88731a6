package virtine

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// ServiceConfig describes a FaaS service simulation: requests arrive as
// a Poisson process and each executes in its own isolated context —
// either a pooled virtine or a forked process (the baseline). The
// virtines paper's service benchmarks measure exactly this shape.
type ServiceConfig struct {
	// ArrivalMeanCycles is the mean inter-arrival gap.
	ArrivalMeanCycles float64
	// Requests is the number of requests to simulate.
	Requests int
	// ExecCycles is the per-request function execution time.
	ExecCycles int64
	// StartupCycles is the per-request isolation start-up cost.
	StartupCycles int64
	Seed          uint64
	// RNG, when non-nil, supplies the arrival randomness directly and
	// Seed is ignored. A parallel runner splits one generator per
	// simulation before the cells start, so results are independent of
	// goroutine scheduling.
	RNG *sim.RNG
}

// ServiceResult summarizes a run.
type ServiceResult struct {
	Latency     stats.Summary // end-to-end latency per request (cycles)
	Throughput  float64       // completed requests per Mcycle
	Utilization float64       // busy fraction of the server
}

// SimulateService runs an M/D/1-style simulation of the service: one
// execution context at a time (Wasp serializes per core), FIFO queue.
func SimulateService(cfg ServiceConfig) ServiceResult {
	rng := cfg.RNG
	if rng == nil {
		rng = sim.NewRNG(cfg.Seed)
	}
	arrival := sim.Exponential{Offset: 0, MeanExp: cfg.ArrivalMeanCycles}

	service := cfg.StartupCycles + cfg.ExecCycles
	var now, serverFree, busy float64
	var lats []float64
	for i := 0; i < cfg.Requests; i++ {
		now += arrival.Sample(rng)
		start := now
		if serverFree > start {
			start = serverFree
		}
		end := start + float64(service)
		serverFree = end
		busy += float64(service)
		lats = append(lats, end-now)
	}
	res := ServiceResult{Latency: stats.Summarize(lats)}
	if serverFree > 0 {
		res.Throughput = float64(cfg.Requests) / serverFree * 1e6
		res.Utilization = busy / serverFree
	}
	return res
}
