package heartbeat

import (
	"fmt"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Substrate selects the heartbeat signaling mechanism (Fig. 2).
type Substrate int

const (
	// SubstrateNautilusIPI: LAPIC timer on CPU 0, IPI broadcast,
	// promotion directly in the interrupt handler.
	SubstrateNautilusIPI Substrate = iota
	// SubstrateLinuxSignals: pacer thread + pthread_kill + POSIX signal
	// delivery, with the kernel's timer floors, jitter and coalescing.
	SubstrateLinuxSignals
	// SubstrateLinuxPolling: compiler-inserted heartbeat polls at loop
	// boundaries; no asynchronous events at all.
	SubstrateLinuxPolling
)

// String names the substrate for reports.
func (s Substrate) String() string {
	switch s {
	case SubstrateNautilusIPI:
		return "nautilus-ipi"
	case SubstrateLinuxSignals:
		return "linux-signals"
	default:
		return "linux-polling"
	}
}

// Config parameterizes one heartbeat runtime instance.
type Config struct {
	Substrate Substrate
	// PeriodCycles is the heartbeat period ♥ in cycles.
	PeriodCycles int64
	// PromoteCost is the cycles to split a frame and publish it.
	PromoteCost int64
	// StealCost is the cycles per steal attempt (CAS + line transfer).
	StealCost int64
	// IdleBackoff is the re-poll gap for an idle worker.
	IdleBackoff int64
	// PollCost is the per-poll check cost (polling substrate).
	PollCost int64
	// PollEveryItems is how many loop iterations between compiler-
	// inserted polls (polling substrate).
	PollEveryItems int64
	// SliceItems bounds how many iterations a worker executes between
	// runtime events (execution granularity of the simulation).
	SliceItems int64
	// Seed fixes victim selection.
	Seed uint64
	// Domains partitions the workers into independent steal domains
	// (0 or 1 keeps the single global domain, the legacy behavior).
	// Each domain owns a contiguous worker range and a proportional
	// share of the items, and steals never cross domains, so every
	// domain's scheduler state is confined to its workers' CPUs.
	Domains int
}

// DefaultConfig returns a TPAL-like configuration at ♥ = 100 µs (in
// cycles of a 1 GHz clock).
func DefaultConfig() Config {
	return Config{
		Substrate:    SubstrateNautilusIPI,
		PeriodCycles: 100_000,
		PromoteCost:  450,
		StealCost:    220,
		IdleBackoff:  400,
		// Polling substrate: TPAL's compiler-inserted software polls
		// check every couple of iterations and spill registers around
		// the check, which is what drives Linux's 13–22% overhead.
		PollCost:       12,
		PollEveryItems: 2,
		SliceItems:     64,
		Seed:           1,
	}
}

// WorkerStats accumulates per-worker accounting.
type WorkerStats struct {
	Items         int64
	WorkCycles    int64
	Promotions    int64
	PromoteCycles int64
	StealAttempts int64
	StealHits     int64
	StealCycles   int64
	PollCycles    int64
	Beats         []sim.Time // heartbeat arrival timestamps
}

// domain is one steal domain: a contiguous worker range with its own
// share of the items and its own termination counter. All of its state
// is only ever touched from its workers' CPUs.
type domain struct {
	id        int
	lo, hi    int // worker index range [lo, hi)
	remaining int64
	queued    int64 // frames in the domain's deques
	doneAt    sim.Time
}

// worker is one TPAL worker bound to a CPU.
type worker struct {
	rt    *Runtime
	id    int
	cpu   *machine.CPU
	dom   *domain // nil in the legacy single-domain mode
	deque *Deque
	cur   *Frame
	rng   *sim.RNG

	// sliceEnd is the first iteration index NOT covered by the slice in
	// flight; promotion may only split above it. sliceItems is that
	// slice's iteration count.
	sliceEnd   int64
	sliceItems int64
	lastPoll   sim.Time
	stats      WorkerStats

	// queued counts the frames in the worker's steal scope: the
	// runtime's in legacy mode, its domain's in domain mode.
	queued *int64
	// batch is the idle batch the worker waits in (nil while it is not
	// waiting in one); polled is the batch's poll count the worker's
	// stats and rng already reflect.
	batch  *idleBatch
	polled int64

	// sliceDone, bound once: every slice completes through it.
	sliceDoneFn func()
}

// Runtime is one heartbeat-scheduling instance across the machine.
type Runtime struct {
	M   *machine.Machine
	Cfg Config
	L   *linux.Stack // present for the Linux substrates

	workers   []*worker
	domains   []*domain
	remaining int64 // items not yet executed, for termination (legacy mode)
	queued    int64 // frames in all deques (legacy mode)
	reported  int   // domains whose completion reached the coordinator
	doneAt    sim.Time
	running   bool
	pacer     *linux.HeartbeatPacer

	// idle is the batch scheduled last, the only one a worker going
	// idle may join; spare holds fired batches for reuse.
	idle  *idleBatch
	spare []*idleBatch

	// TotalItems is the workload size (set by Run).
	TotalItems int64
}

// New creates a runtime with one worker per machine CPU.
func New(m *machine.Machine, cfg Config) *Runtime {
	rt := &Runtime{M: m, Cfg: cfg}
	if cfg.Substrate != SubstrateNautilusIPI {
		rt.L = linux.New(m.Model, cfg.Seed^0x5eed)
	}
	rng := sim.NewRNG(cfg.Seed)
	for i, cpu := range m.CPUs {
		w := &worker{rt: rt, id: i, cpu: cpu, deque: NewDeque(), rng: rng.Split()}
		w.sliceDoneFn = w.sliceDone
		w.queued = &rt.queued
		rt.workers = append(rt.workers, w)
	}
	if d := cfg.Domains; d > 1 {
		n := len(rt.workers)
		if d > n {
			panic("heartbeat: more domains than workers")
		}
		rt.domains = make([]*domain, d)
		for i := range rt.domains {
			rt.domains[i] = &domain{id: i, lo: n, hi: 0}
		}
		// Worker i belongs to domain i*D/n: contiguous worker blocks.
		for i, w := range rt.workers {
			dom := rt.domains[i*d/n]
			w.dom = dom
			w.queued = &dom.queued
			if i < dom.lo {
				dom.lo = i
			}
			if i+1 > dom.hi {
				dom.hi = i + 1
			}
		}
	}
	return rt
}

// Run executes a parallel range of totalItems iterations, each costing
// cyclesPerItem, with the given minimum grain. It installs the heartbeat
// substrate, seeds worker 0 with the whole range, and returns when the
// work is complete (the engine is run to completion internally).
func (rt *Runtime) Run(totalItems, cyclesPerItem, grain int64) {
	if rt.start(totalItems, cyclesPerItem, grain) {
		rt.M.Eng.Run()
	}
	rt.settleIdle()
}

// start seeds the work, installs the substrate and takes every worker's
// first step. It reports false when no domain has anything to do.
func (rt *Runtime) start(totalItems, cyclesPerItem, grain int64) bool {
	rt.TotalItems = totalItems
	rt.running = true
	if len(rt.domains) > 0 {
		// Domain mode: each domain is seeded with its proportional item
		// range on its first worker; termination is counted per domain.
		nd := int64(len(rt.domains))
		for _, d := range rt.domains {
			lo := totalItems * int64(d.id) / nd
			hi := totalItems * int64(d.id+1) / nd
			d.remaining = hi - lo
			if hi > lo {
				rt.workers[d.lo].deque.PushBottom(&Frame{Lo: lo, Hi: hi, CyclesPerItem: cyclesPerItem, Grain: grain})
				rt.workers[d.lo].countQueued(1)
			} else {
				rt.reported++ // empty domain: nothing will ever report
			}
		}
	} else {
		rt.remaining = totalItems
		root := &Frame{Lo: 0, Hi: totalItems, CyclesPerItem: cyclesPerItem, Grain: grain}
		rt.workers[0].deque.PushBottom(root)
		rt.workers[0].countQueued(1)
	}

	if len(rt.domains) > 0 && rt.reported == len(rt.domains) {
		// Nothing to do in any domain; don't start a substrate nobody
		// will stop.
		rt.running = false
		return false
	}
	rt.installSubstrate()
	for _, w := range rt.workers {
		w.step()
	}
	return true
}

// DoneAt returns the completion timestamp.
func (rt *Runtime) DoneAt() sim.Time { return rt.doneAt }

// WorkerStats returns worker i's accounting.
func (rt *Runtime) WorkerStats(i int) *WorkerStats { return &rt.workers[i].stats }

// NumWorkers returns the worker count.
func (rt *Runtime) NumWorkers() int { return len(rt.workers) }

func (rt *Runtime) installSubstrate() {
	switch rt.Cfg.Substrate {
	case SubstrateNautilusIPI:
		// Workers: promotion in the IPI handler.
		for _, w := range rt.workers {
			w := w
			w.cpu.SetHandler(machine.VecHeartbeat, func(ctx *machine.IntrContext) {
				w.onBeat(ctx)
			})
		}
		// CPU 0: LAPIC timer handler broadcasts; CPU 0 is also a worker
		// and promotes itself.
		cpu0 := rt.M.CPU(0)
		cpu0.SetHandler(machine.VecTimer, func(ctx *machine.IntrContext) {
			ctx.AddCost(40) // timer ack + broadcast setup
			cpu0.BroadcastIPI(machine.VecHeartbeat)
			rt.workers[0].onBeat(ctx)
		})
		cpu0.APIC().Periodic(rt.Cfg.PeriodCycles, machine.VecTimer)

	case SubstrateLinuxSignals:
		// A pacer on CPU 0 signals workers 1..N-1 (CPU 0 hosts the
		// pacer thread itself, as TPAL does on Linux); deliveries raise
		// a "signal" interrupt whose handler pays the kernel's signal
		// path on top of dispatch.
		var workerCPUs []int
		for i := 1; i < len(rt.workers); i++ {
			workerCPUs = append(workerCPUs, i)
		}
		extra := rt.L.Model.Linux.SignalDeliver + rt.L.Model.Linux.SignalReturn
		for _, i := range workerCPUs {
			w := rt.workers[i]
			w.cpu.SetHandler(machine.VecHeartbeat, func(ctx *machine.IntrContext) {
				ctx.AddCost(extra)
				w.onBeat(ctx)
			})
		}
		rt.pacer = &linux.HeartbeatPacer{
			S:            rt.L,
			Eng:          rt.M.Eng,
			Workers:      workerCPUs,
			PeriodCycles: rt.Cfg.PeriodCycles,
			HandlerCost:  rt.Cfg.PromoteCost,
			OnBeat: func(idx int, _ sim.Time) {
				rt.workers[workerCPUs[idx]].cpu.Raise(machine.VecHeartbeat)
			},
		}
		// Domain mode coalesces on the worker, at delivery: the
		// worker's pending bit is its own domain's state.
		rt.pacer.CoalesceAtDelivery = len(rt.domains) > 0
		rt.pacer.Start()

	case SubstrateLinuxPolling:
		// Nothing to install: polls are folded into worker execution.
	}
}

// now returns the current simulated time.
func (w *worker) now() sim.Time { return w.rt.M.Eng.Now() }

// onBeat is the promotion executed when a heartbeat reaches a worker.
func (w *worker) onBeat(ctx *machine.IntrContext) {
	w.stats.Beats = append(w.stats.Beats, w.now())
	if w.cur != nil {
		if upper := w.cur.SplitAbove(w.sliceEnd); upper != nil {
			w.deque.PushBottom(upper)
			w.countQueued(1)
			w.stats.Promotions++
			w.stats.PromoteCycles += w.rt.Cfg.PromoteCost
			ctx.AddCost(w.rt.Cfg.PromoteCost)
			return
		}
	}
	// Nothing to promote: the check itself is nearly free.
	ctx.AddCost(20)
}

// step advances the worker's state machine: find work, execute a slice,
// repeat. All blocking is via engine events.
func (w *worker) step() {
	if w.done() {
		return
	}
	if w.cur == nil {
		if f := w.deque.PopBottom(); f != nil {
			w.countQueued(-1)
			w.cur = f
			w.sliceEnd = 0
		} else if f := w.steal(); f != nil {
			w.countQueued(-1)
			w.cur = f
			w.sliceEnd = 0
		} else {
			// Idle: back off and retry, in an idle batch.
			w.idleWait()
			return
		}
	}
	w.execSlice()
}

// countQueued adds d to the queued-frame count of the worker's steal
// scope.
func (w *worker) countQueued(d int64) { *w.queued += d }

// done reports whether the work the worker takes part in is finished.
func (w *worker) done() bool {
	if w.dom != nil {
		// Domain mode: the stop condition is domain-local; rt.running
		// only falls once every domain has reported.
		return w.dom.remaining <= 0
	}
	return !w.rt.running
}

// scope returns the worker index range the worker steals from: its
// domain's, or the whole machine's in legacy mode.
func (w *worker) scope() (lo, hi int) {
	if w.dom != nil {
		return w.dom.lo, w.dom.hi
	}
	return 0, len(w.rt.workers)
}

// steal picks a random victim inside the worker's steal domain (the
// whole machine in legacy mode) and tries to take the top of its deque.
func (w *worker) steal() *Frame {
	rt := w.rt
	lo, hi := w.scope()
	n := hi - lo
	if n == 1 {
		return nil
	}
	w.stats.StealAttempts++
	w.stats.StealCycles += rt.Cfg.StealCost
	victim := rt.workers[lo+((w.id-lo)+1+w.rng.Intn(n-1))%n]
	if f := victim.deque.StealTop(); f != nil {
		w.stats.StealHits++
		return f
	}
	return nil
}

// idleBatch is one engine event standing for the next polls of idle
// workers that are due at the same tick and were scheduled back to
// back, so they would fire back to back, in member order (DESIGN.md
// §3k). While no frame is queued in the members' steal scope, every
// member's poll must fail; the batch then only counts the round and
// fires again IdleBackoff later, and each member settles the rounds it
// missed before it next steps.
type idleBatch struct {
	rt      *Runtime
	members []*worker
	queued  *int64 // the members' steal scope's queued-frame count
	at      sim.Time
	seq     uint64 // the engine's schedule count just after scheduling
	polls   int64  // rounds in which every member's poll failed
	fireFn  func() // fire, bound once
}

// idleWait schedules the worker's next poll IdleBackoff cycles from now.
// It joins the batch scheduled last when that
// batch is due then, polls the same scope and nothing has been scheduled
// since it was: a separate event would fire right after the batch's last
// member. Otherwise it starts a batch of its own.
func (w *worker) idleWait() {
	rt := w.rt
	at := rt.nextPoll()
	b := rt.idle
	if b == nil || b.at != at || b.seq != rt.M.Eng.Scheduled() || b.queued != w.queued {
		if n := len(rt.spare); n > 0 {
			b, rt.spare = rt.spare[n-1], rt.spare[:n-1]
		} else {
			b = &idleBatch{rt: rt}
			b.fireFn = b.fire
		}
		b.queued, b.polls = w.queued, 0
		b.schedule(at)
	}
	b.members = append(b.members, w)
	w.batch, w.polled = b, b.polls
}

// nextPoll is when a poll that fails now is retried, as After would
// schedule it.
func (rt *Runtime) nextPoll() sim.Time {
	return rt.M.Eng.Now() + sim.Time(max(rt.Cfg.IdleBackoff, 0))
}

// schedule puts the batch on the engine at time at.
func (b *idleBatch) schedule(at sim.Time) {
	rt := b.rt
	rt.M.Eng.At(at, b.fireFn)
	b.at, b.seq = at, rt.M.Eng.Scheduled()
	rt.idle = b
}

// fire runs one round of the members' polls. With nothing queued in
// their scope while the run goes on, each poll would touch only its
// worker's rng and stats and an empty deque, so the round is counted
// and settled later. Otherwise the members step in order, as their own
// events would have; the ones that fail again wait in new batches.
func (b *idleBatch) fire() {
	rt := b.rt
	if *b.queued == 0 && !b.members[0].done() {
		b.polls++
		b.schedule(rt.nextPoll())
		return
	}
	for _, w := range b.members {
		w.settle()
		w.batch = nil
		w.step()
	}
	b.members = b.members[:0]
	rt.spare = append(rt.spare, b)
}

// settle accounts for the polls the worker's batch counted for it since
// it last settled: each failed, costing one steal attempt and drawing a
// victim as steal does. Nobody reads those victims, so the rng jumps
// past their draws instead of making them.
func (w *worker) settle() {
	n := w.batch.polls - w.polled
	w.polled = w.batch.polls
	lo, hi := w.scope()
	if n == 0 || hi-lo == 1 {
		return
	}
	w.stats.StealAttempts += n
	w.stats.StealCycles += n * w.rt.Cfg.StealCost
	w.rng.SkipIntn(hi-lo-1, n)
}

// settleIdle settles every worker still waiting in a batch, so stats
// are exact once Run returns.
func (rt *Runtime) settleIdle() {
	for _, w := range rt.workers {
		if w.batch != nil {
			w.settle()
		}
	}
}

// execSlice runs up to SliceItems iterations of the current frame.
func (w *worker) execSlice() {
	rt := w.rt
	f := w.cur
	items := rt.Cfg.SliceItems
	if items > f.Remaining() {
		items = f.Remaining()
	}
	w.sliceEnd = f.Lo + items
	cost := items * f.CyclesPerItem
	// Polling substrate: compiler-inserted poll checks at loop
	// boundaries, plus promotion when the period elapsed.
	if rt.Cfg.Substrate == SubstrateLinuxPolling && rt.Cfg.PollEveryItems > 0 {
		polls := items / rt.Cfg.PollEveryItems
		pc := polls * rt.Cfg.PollCost
		cost += pc
		w.stats.PollCycles += pc
	}
	w.sliceItems = items
	w.cpu.Run(cost, w.sliceDoneFn)
}

// sliceDone retires the slice in flight on the current frame, then
// steps the worker unless its work is finished.
func (w *worker) sliceDone() {
	rt := w.rt
	f, items := w.cur, w.sliceItems
	f.Lo += items
	w.stats.Items += items
	w.stats.WorkCycles += items * f.CyclesPerItem
	if w.dom != nil {
		w.dom.remaining -= items
	} else {
		rt.remaining -= items
	}
	if rt.Cfg.Substrate == SubstrateLinuxPolling {
		now := w.now()
		if now.Sub(w.lastPoll) >= rt.Cfg.PeriodCycles {
			w.lastPoll = now
			w.pollBeat()
		}
	}
	if f.Remaining() == 0 {
		w.cur = nil
	}
	if w.dom != nil {
		if w.dom.remaining <= 0 {
			rt.domainDone(w)
			return
		}
	} else if rt.remaining <= 0 {
		rt.finish()
		return
	}
	w.step()
}

// domainDone stamps the finishing domain's completion time and
// notifies the coordinator CPU at IPI latency. The notification is
// reliable — termination is protocol, not workload, so it is not routed
// through the machine's injectable IPI path.
func (rt *Runtime) domainDone(w *worker) {
	w.dom.doneAt = w.now()
	lat := sim.Time(rt.M.Model.HW.IPILatency)
	rt.M.Eng.After(lat, rt.domainReported)
}

// domainReported runs on the coordinator, once per finished domain.
// When the last report lands, the substrate is stopped and the engine
// drains without a Halt: with the heartbeat sources quenched and every
// domain's workers done, nothing reschedules.
func (rt *Runtime) domainReported() {
	rt.reported++
	if rt.reported < len(rt.domains) {
		return
	}
	rt.running = false
	for _, d := range rt.domains {
		if d.doneAt > rt.doneAt {
			rt.doneAt = d.doneAt
		}
	}
	rt.stopSubstrate()
}

// pollBeat is the polling substrate's promotion point.
func (w *worker) pollBeat() {
	w.stats.Beats = append(w.stats.Beats, w.now())
	if w.cur != nil {
		upper := w.cur.SplitAbove(w.sliceEnd)
		if upper == nil {
			return
		}
		w.deque.PushBottom(upper)
		w.countQueued(1)
		w.stats.Promotions++
		w.stats.PromoteCycles += w.rt.Cfg.PromoteCost
		// Promotion cost is paid inline on the worker.
		w.stats.PollCycles += w.rt.Cfg.PromoteCost
	}
}

// CheckInvariants validates the runtime's cross-worker invariants:
// every deque is structurally sound, no frame is owned by two places
// at once (a deque slot or a worker's current frame), the queued-frame
// counter idle batches read equals the frames in the deques, and —
// while a run is in flight — the iterations remaining inside frames
// equal the runtime's termination counter. The conservation check is
// exact at engine-event boundaries, which is the vantage point of
// every chaos hook: a slice's Lo advance and the remaining decrement
// happen in the same callback, and promotion/steal moves conserve
// items.
func (rt *Runtime) CheckInvariants() error {
	if len(rt.domains) > 0 {
		// Domain mode: every domain's check is self-contained.
		for _, d := range rt.domains {
			if err := rt.CheckDomainInvariants(d.id); err != nil {
				return err
			}
		}
		return nil
	}
	pending, err := rt.checkWorkerRange(0, len(rt.workers))
	if err != nil {
		return err
	}
	if rt.running && pending != rt.remaining {
		return fmt.Errorf("heartbeat: frames hold %d items but %d remain outstanding", pending, rt.remaining)
	}
	return nil
}

// CheckDomainInvariants validates one steal domain: deque structure,
// unique frame ownership, the domain's queued-frame counter, and item
// conservation against the domain's own termination counter. It
// touches only domain d's workers, so a chaos invariant hook on the
// sites of domain d's CPUs can check just that domain.
func (rt *Runtime) CheckDomainInvariants(d int) error {
	dom := rt.domains[d]
	pending, err := rt.checkWorkerRange(dom.lo, dom.hi)
	if err != nil {
		return err
	}
	if dom.remaining > 0 && pending != dom.remaining {
		return fmt.Errorf("heartbeat: domain %d frames hold %d items but %d remain outstanding", d, pending, dom.remaining)
	}
	return nil
}

// checkWorkerRange applies the structural and ownership checks to
// workers [lo, hi), checks their deques hold as many frames as their
// scope counts queued, and returns the items their frames still hold.
func (rt *Runtime) checkWorkerRange(lo, hi int) (int64, error) {
	owner := make(map[*Frame]int)
	var pending int64
	claim := func(f *Frame, w int) error {
		if prev, dup := owner[f]; dup {
			return fmt.Errorf("heartbeat: frame [%d,%d) owned by workers %d and %d", f.Lo, f.Hi, prev, w)
		}
		owner[f] = w
		if f.Remaining() < 0 {
			return fmt.Errorf("heartbeat: frame with negative range [%d,%d)", f.Lo, f.Hi)
		}
		pending += f.Remaining()
		return nil
	}
	var held int64
	for _, w := range rt.workers[lo:hi] {
		if err := w.deque.CheckInvariants(); err != nil {
			return 0, fmt.Errorf("worker %d: %w", w.id, err)
		}
		held += int64(w.deque.Len())
		for i := w.deque.top; i < len(w.deque.items); i++ {
			if err := claim(w.deque.items[i], w.id); err != nil {
				return 0, err
			}
		}
		if w.cur != nil {
			if err := claim(w.cur, w.id); err != nil {
				return 0, err
			}
		}
	}
	if q := *rt.workers[lo].queued; held != q {
		return 0, fmt.Errorf("heartbeat: deques hold %d frames but %d are counted queued", held, q)
	}
	return pending, nil
}

// stopSubstrate quenches the heartbeat sources: the coordinator CPU's
// LAPIC timer and the Linux pacer.
func (rt *Runtime) stopSubstrate() {
	rt.M.CPU(0).APIC().Stop()
	if rt.pacer != nil {
		rt.pacer.Stop()
	}
}

// finish stops the substrate and halts the engine (legacy single-domain
// termination).
func (rt *Runtime) finish() {
	if !rt.running {
		return
	}
	rt.running = false
	rt.doneAt = rt.M.Eng.Now()
	rt.stopSubstrate()
	rt.M.Eng.Halt()
}

// OverheadFraction returns scheduling overhead as a fraction of total
// consumed cycles: everything that is not useful item work (promotion,
// polls, steals, interrupt dispatch, handler bookkeeping).
func (rt *Runtime) OverheadFraction() float64 {
	var useful, overhead int64
	for _, w := range rt.workers {
		useful += w.stats.WorkCycles
		overhead += w.stats.PromoteCycles + w.stats.StealCycles + w.stats.PollCycles
		overhead += w.cpu.Stats.DispatchCycles + w.cpu.Stats.HandlerCycles
	}
	if useful == 0 {
		return 0
	}
	return float64(overhead) / float64(useful+overhead)
}

// AchievedRates returns, per worker that observed beats, the achieved
// heartbeat rate in beats per million cycles.
func (rt *Runtime) AchievedRates() []float64 {
	var out []float64
	for _, w := range rt.workers {
		b := w.stats.Beats
		if len(b) < 2 {
			continue
		}
		span := b[len(b)-1].Sub(b[0])
		if span <= 0 {
			continue
		}
		out = append(out, float64(len(b)-1)/float64(span)*1e6)
	}
	return out
}

// InterBeatGaps returns all inter-heartbeat gaps (cycles) across workers,
// the raw data behind Fig. 3's stability claim.
func (rt *Runtime) InterBeatGaps() []float64 {
	var gaps []float64
	for _, w := range rt.workers {
		b := w.stats.Beats
		for i := 1; i < len(b); i++ {
			gaps = append(gaps, float64(b[i].Sub(b[i-1])))
		}
	}
	return gaps
}
