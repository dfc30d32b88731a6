// Package pipeline models the paper's proposed hardware extension
// (§V-D): delivering simple interrupts through the branch-prediction
// logic, as if the interrupt were a kind of branch instruction injected
// into instruction fetch, with MSR-based return — instead of the
// ~1000-cycle IDT dispatch path.
//
// The package measures delivery latency distributions under both
// mechanisms on the simulated machine and derives the usable preemption
// granularity each mechanism permits — the paper claims a latency
// "similar to that of a correctly predicted branch instruction,
// 100–1000x better".
package pipeline

import (
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes a measurement.
type Config struct {
	// Samples is the number of interrupt deliveries to measure.
	Samples int
	// MispredictRate is the fraction of pipeline-injected interrupts
	// that arrive while the injection slot conflicts with a real branch
	// (costing a pipeline flush instead of a predicted-branch slot).
	MispredictRate float64
	// IDTSigma is the microarchitectural variance of the IDT path
	// (cold IDT lines, microcode, TLB effects).
	IDTSigma float64
	Seed     uint64
}

// DefaultConfig returns the measurement defaults.
func DefaultConfig() Config {
	return Config{Samples: 10_000, MispredictRate: 0.03, IDTSigma: 80, Seed: 3}
}

// Result summarizes one mechanism comparison.
type Result struct {
	IDT      stats.Summary
	Pipeline stats.Summary
	// SpeedupMean is IDT.Mean / Pipeline.Mean.
	SpeedupMean float64
}

// Compare measures deliver-to-handler-entry latency for both mechanisms.
// The IDT path is exercised on the simulated machine (a CPU running
// work, genuinely preempted); the pipeline path samples the injection
// model (predicted-branch latency with occasional flush conflicts).
func Compare(mdl model.Model, cfg Config) Result {
	idt := measureIDT(mdl, cfg)
	pipe := samplePipeline(mdl, cfg)
	r := Result{IDT: stats.Summarize(idt), Pipeline: stats.Summarize(pipe)}
	if r.Pipeline.Mean > 0 {
		r.SpeedupMean = r.IDT.Mean / r.Pipeline.Mean
	}
	return r
}

// measureIDT raises real interrupts on a machine CPU and measures the
// time from raise to handler entry.
func measureIDT(mdl model.Model, cfg Config) []float64 {
	eng := sim.NewEngine()
	m := machine.New(eng, mdl, machine.Topology{Sockets: 1, CoresPerSocket: 1})
	cpu := m.CPU(0)
	rng := sim.NewRNG(cfg.Seed)
	jitter := sim.Normal{Mu: 0, Sigma: cfg.IDTSigma, Min: -float64(mdl.HW.InterruptDispatch) / 2}

	samples := make([]float64, 0, cfg.Samples)
	var raisedAt sim.Time
	cpu.SetHandler(machine.VecTimer, func(ctx *machine.IntrContext) {
		lat := float64(eng.Now().Sub(raisedAt)) + jitter.Sample(rng)
		if lat < 1 {
			lat = 1
		}
		samples = append(samples, lat)
		ctx.AddCost(10)
	})
	// Keep the CPU busy forever so deliveries always preempt real work.
	var refill func()
	refill = func() { cpu.Run(1_000_000, refill) }
	refill()

	var raise func()
	n := 0
	raise = func() {
		if n >= cfg.Samples {
			eng.Halt()
			return
		}
		n++
		raisedAt = eng.Now()
		cpu.Raise(machine.VecTimer)
		eng.After(sim.Time(5_000+rng.Intn(200)), raise)
	}
	eng.At(100, raise)
	eng.Run()
	return samples
}

// samplePipeline draws deliveries from the branch-injection model:
// normally a correctly predicted branch; occasionally the injection
// conflicts with in-flight speculation and pays a flush.
func samplePipeline(mdl model.Model, cfg Config) []float64 {
	rng := sim.NewRNG(cfg.Seed ^ 0x9999)
	out := make([]float64, 0, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		lat := float64(mdl.HW.PredictedBranch)
		if rng.Float64() < cfg.MispredictRate {
			lat = float64(mdl.HW.MispredictedBranch)
		}
		out = append(out, lat)
	}
	return out
}

// MinGranularity returns the smallest timer period (cycles) each
// mechanism supports while keeping delivery overhead within budget
// (e.g. 0.05 = 5%): period >= roundTripCost / budget.
func MinGranularity(mdl model.Model, budget float64) (idt, pipe int64) {
	if budget <= 0 {
		budget = 0.05
	}
	idtCost := float64(mdl.HW.InterruptDispatch + mdl.HW.InterruptReturn)
	pipeCost := float64(mdl.HW.PredictedBranch*2 + 2)
	return int64(idtCost / budget), int64(pipeCost / budget)
}
