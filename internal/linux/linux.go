// Package linux models the commodity software stack the paper's systems
// are compared against: a general-purpose kernel with a user/kernel
// boundary, POSIX-signal event delivery, high-resolution timers with
// slack and coalescing, heavy-tailed OS noise, and heavyweight context
// switches.
//
// It is deliberately a *model*, not a kernel: the paper's Linux-side
// numbers (5000-cycle context switches, signal rates that collapse below
// ♥ = 100 µs at 16 CPUs, 13–22% heartbeat scheduling overhead) are
// structural consequences of crossing costs, timer floors, and noise —
// which is exactly what this package parameterizes.
package linux

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Stack is one simulated Linux instance: its crossing costs and timer
// floor come from the model, its jitter and noise from its own
// generator. It holds no machine; the pacer schedules on an engine it
// is given.
type Stack struct {
	Model model.Model
	rng   *sim.RNG

	noise sim.Dist
}

// New creates a Linux model with platform model mdl.
func New(mdl model.Model, seed uint64) *Stack {
	lc := mdl.Linux
	return &Stack{
		Model: mdl,
		rng:   sim.NewRNG(seed),
		noise: sim.Pareto{Alpha: lc.NoiseAlpha, Lo: lc.NoiseLo, Hi: lc.NoiseHi},
	}
}

// ContextSwitchCost returns the Linux thread context-switch cost (Fig. 4
// baseline): interrupt entry/exit, register and optional FP state,
// scheduler selection, and general-purpose-kernel baggage.
func (s *Stack) ContextSwitchCost(fp bool) int64 {
	hw, lc := s.Model.HW, s.Model.Linux
	c := hw.InterruptDispatch + hw.InterruptReturn + hw.GPRSaveRestore +
		lc.SchedulerPick + lc.ContextSwitchExtra
	if fp {
		c += hw.FPStateSave + hw.FPStateRestore
	}
	return c
}

// SyscallCost returns one user->kernel->user round trip.
func (s *Stack) SyscallCost() int64 {
	return s.Model.Linux.SyscallEntry + s.Model.Linux.SyscallExit
}

// SignalPathCost returns the cycles a worker pays to receive one signal:
// interrupt entry, kernel signal delivery, user frame setup and
// sigreturn.
func (s *Stack) SignalPathCost() int64 {
	hw, lc := s.Model.HW, s.Model.Linux
	return hw.InterruptDispatch + lc.SignalDeliver + lc.SignalReturn + hw.InterruptReturn
}

// SampleTimerJitter draws the delivery slack of one timer expiration.
func (s *Stack) SampleTimerJitter() int64 {
	j := sim.Normal{Mu: s.Model.Linux.TimerJitterMu, Sigma: s.Model.Linux.TimerJitterSigma, Min: 0}
	return int64(j.Sample(s.rng))
}

// SampleNoise draws one OS-noise episode length (heavy-tailed).
func (s *Stack) SampleNoise() int64 { return int64(s.noise.Sample(s.rng)) }

// NoiseHits reports whether a noise episode interrupts an interval of
// the given length, using the configured mean inter-noise gap.
func (s *Stack) NoiseHits(interval int64) bool {
	every := s.Model.Linux.NoiseEveryC
	if every <= 0 {
		return false
	}
	// Probability interval/every, capped at 1.
	p := float64(interval) / float64(every)
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// EffectivePeriod clamps a requested timer period to the kernel's
// effective floor ("existing software mechanisms in Linux are unable to
// achieve predictably low latencies", §IV-B).
func (s *Stack) EffectivePeriod(period int64) int64 {
	if period < s.Model.Linux.MinTimerGranularity {
		return s.Model.Linux.MinTimerGranularity
	}
	return period
}

// PacerStats summarize a heartbeat pacer run.
type PacerStats struct {
	RoundsStarted   int64
	SignalsSent     int64
	Coalesced       int64 // deliveries dropped because the prior one was pending
	NoiseEpisodes   int64
	DeliveredPerCPU []int64
	DeliveryTimes   [][]sim.Time // per worker CPU, delivery timestamps
}

// HeartbeatPacer models TPAL's best available Linux mechanism (Fig. 2,
// right): a pacer thread on CPU 0 wakes on a high-resolution timer and
// signals every worker thread with pthread_kill. Each kill is a syscall
// plus a cross-CPU IPI; deliveries pay the full signal path; pending
// signals coalesce (POSIX semantics: one pending bit per signo).
type HeartbeatPacer struct {
	S *Stack
	// Eng is the engine the pacer's rounds and deliveries run on.
	Eng     *sim.Engine
	Workers []int // CPU ids of worker threads
	// PeriodCycles is the requested heartbeat period ♥.
	PeriodCycles int64
	// HandlerCost is the user handler work per heartbeat (promotion).
	HandlerCost int64
	// OnBeat is invoked at each delivery on a worker (after costs).
	OnBeat func(worker int, at sim.Time)

	// CoalesceAtDelivery sends every kill and resolves POSIX coalescing
	// at delivery, on the worker, instead of skipping the kill at the
	// pacer while the worker's previous signal is pending. The heartbeat
	// runtime sets it in steal-domain mode.
	CoalesceAtDelivery bool

	Stats   PacerStats
	pending []bool
	stopped bool
}

// Start begins pacing at the engine's current time and runs until Stop.
func (p *HeartbeatPacer) Start() {
	p.pending = make([]bool, len(p.Workers))
	p.Stats.DeliveredPerCPU = make([]int64, len(p.Workers))
	p.Stats.DeliveryTimes = make([][]sim.Time, len(p.Workers))
	p.round()
}

// Stop ends pacing after the current round.
func (p *HeartbeatPacer) Stop() { p.stopped = true }

func (p *HeartbeatPacer) round() {
	if p.stopped {
		return
	}
	s := p.S
	eng := p.Eng
	p.Stats.RoundsStarted++

	// Sequential pthread_kill to each worker: each costs the pacer a
	// syscall and the kernel an IPI; the delivery lands later.
	var pacerBusy int64
	for i := range p.Workers {
		pacerBusy += s.SyscallCost()
		if !p.CoalesceAtDelivery {
			if p.pending[i] {
				// Previous signal still pending on this worker: POSIX
				// collapses them.
				p.Stats.Coalesced++
				continue
			}
			p.pending[i] = true
		}
		p.Stats.SignalsSent++
		deliveryDelay := pacerBusy + s.Model.HW.IPILatency + s.SampleTimerJitter()
		eng.After(sim.Time(deliveryDelay), func() {
			p.deliver(i)
		})
	}

	// Next round: timer floor + pacer busy time + timer jitter, plus
	// occasional heavy-tailed noise preempting the pacer itself.
	gap := s.EffectivePeriod(p.PeriodCycles)
	if pacerBusy > gap {
		gap = pacerBusy
	}
	gap += s.SampleTimerJitter()
	if s.NoiseHits(gap) {
		gap += s.SampleNoise()
		p.Stats.NoiseEpisodes++
	}
	eng.After(sim.Time(gap), p.round)
}

// deliver executes one signal delivery on worker i. When coalescing at
// delivery, a still-pending prior signal collapses this one; otherwise
// the pacer already skipped the kill.
func (p *HeartbeatPacer) deliver(i int) {
	if p.CoalesceAtDelivery {
		if p.pending[i] {
			p.Stats.Coalesced++
			return
		}
		p.pending[i] = true
	}
	s := p.S
	cost := s.SignalPathCost() + p.HandlerCost
	// The worker is interrupted for the duration; we model the cost by
	// occupying the engine and recording the delivery at handler entry.
	at := p.Eng.Now()
	p.Stats.DeliveredPerCPU[i]++
	p.Stats.DeliveryTimes[i] = append(p.Stats.DeliveryTimes[i], at)
	if p.OnBeat != nil {
		p.OnBeat(i, at)
	}
	p.Eng.After(sim.Time(cost), func() {
		p.pending[i] = false
	})
}
