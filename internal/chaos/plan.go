package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Plan is one seeded fault schedule plus the invariant checkers that
// must hold at every injection firing. A plan hands out injector
// closures bound to named sites; each site owns an RNG stream derived
// from the plan seed and the site name alone, so fault decisions are a
// pure function of (seed, site, per-site call sequence) and replaying a
// workload under the same seed reproduces the same trace.
//
// The plan's own bookkeeping is mutex-guarded, so injectors may be
// called from concurrent goroutines (the exp pool regression test
// does); but per-site decision sequences are only deterministic when
// each site is driven from one goroutine, which is how the simulation
// layers use them (one site per CPU, one engine per plan).
type Plan struct {
	seed uint64
	cfg  Config

	mu         sync.Mutex
	sites      map[string]*site
	faults     int
	checks     []invariant
	siteChecks map[string][]invariant
	viols      []Violation
	inCheck    bool // re-entrancy guard: checkers must not recurse into checkers
}

// site is one injection point's private state.
type site struct {
	rng      *sim.RNG
	seq      int
	consults uint64 // allocation consults, for the exhaustion budget
	trace    []Fault
	inCheck  bool // per-site re-entrancy guard for site-scoped checkers
}

// invariant is a registered named checker.
type invariant struct {
	name string
	fn   func() error
}

// NewPlan creates a plan for seed with the given fault configuration.
func NewPlan(seed uint64, cfg Config) *Plan {
	return &Plan{seed: seed, cfg: cfg, sites: make(map[string]*site)}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 { return p.seed }

// Config returns the plan's fault configuration.
func (p *Plan) Config() Config { return p.cfg }

// siteLocked returns (creating on demand) the named site. Caller holds p.mu.
func (p *Plan) siteLocked(name string) *site {
	s := p.sites[name]
	if s == nil {
		s = &site{rng: sim.NewRNG(p.seed).SplitLabel(name)}
		p.sites[name] = s
	}
	return s
}

// recordLocked appends a fault at s and returns it. Caller holds p.mu.
func (p *Plan) recordLocked(name string, s *site, kind Kind, arg int64) Fault {
	f := Fault{Site: name, Seq: s.seq, Kind: kind, Arg: arg}
	s.seq++
	s.trace = append(s.trace, f)
	p.faults++
	return f
}

// OnInvariant registers a named invariant checker; every registered
// checker runs at every subsequent fault firing, and any error it
// returns is recorded as a Violation against the in-flight fault.
// Checkers run with the plan lock released, so they may inspect
// structures whose own hooks consult this plan — but a fault fired
// *inside* a checker is recorded without re-running the checkers
// (bounded recursion).
func (p *Plan) OnInvariant(name string, fn func() error) {
	p.mu.Lock()
	p.checks = append(p.checks, invariant{name: name, fn: fn})
	p.mu.Unlock()
}

// OnSiteInvariant registers a checker that runs only for faults fired at
// the named site (exact match, including any /cpuN suffix). Site-scoped
// checkers are the sharded-run form of OnInvariant: a fault consulted on
// one engine shard may only be checked against state owned by that
// shard, so each shard's sites carry their own checkers and their own
// re-entrancy guard. Global OnInvariant checkers remain suited to
// sequential runs only — their shared guard makes concurrent firings
// skip checks nondeterministically, and they typically walk state that
// spans shards.
func (p *Plan) OnSiteInvariant(siteName, name string, fn func() error) {
	p.mu.Lock()
	if p.siteChecks == nil {
		p.siteChecks = make(map[string][]invariant)
	}
	p.siteChecks[siteName] = append(p.siteChecks[siteName], invariant{name: name, fn: fn})
	p.mu.Unlock()
}

// checkAt runs the registered invariants against the in-flight fault:
// every global checker (unless one is already running), then the fault
// site's own checkers (unless that site's are already running — a fault
// fired from inside a checker at the same site is recorded without
// recursing).
func (p *Plan) checkAt(f Fault) {
	p.mu.Lock()
	var checks, siteChecks []invariant
	tookGlobal := !p.inCheck && len(p.checks) > 0
	if tookGlobal {
		p.inCheck = true
		checks = p.checks
	}
	var s *site
	if len(p.siteChecks[f.Site]) > 0 {
		s = p.siteLocked(f.Site)
		if !s.inCheck {
			s.inCheck = true
			siteChecks = p.siteChecks[f.Site]
		} else {
			s = nil
		}
	}
	p.mu.Unlock()
	if !tookGlobal && s == nil {
		return
	}

	var bad []Violation
	for _, c := range append(append([]invariant(nil), checks...), siteChecks...) {
		if err := c.fn(); err != nil {
			bad = append(bad, Violation{Fault: f, Invariant: c.name, Err: err})
		}
	}

	p.mu.Lock()
	p.viols = append(p.viols, bad...)
	if tookGlobal {
		p.inCheck = false
	}
	if s != nil {
		s.inCheck = false
	}
	p.mu.Unlock()
}

// CheckNow runs every registered invariant at an explicit checkpoint
// (outside any fault firing), recording violations against a synthetic
// fault labeled with the checkpoint name.
func (p *Plan) CheckNow(label string) {
	p.checkAt(Fault{Site: "checkpoint/" + label})
}

// Violations returns a copy of all recorded invariant violations, in
// recording order. A sequential run's order is deterministic; under
// concurrent shards, canonicalize with SortViolations before comparing
// runs.
func (p *Plan) Violations() []Violation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Violation(nil), p.viols...)
}

// SortViolations orders violations canonically by (site, sequence,
// invariant name) — the same key Trace uses — so two runs of the same
// plan compare byte-identically regardless of how many engine shards
// recorded them concurrently.
func SortViolations(v []Violation) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Fault.Site != v[j].Fault.Site {
			return v[i].Fault.Site < v[j].Fault.Site
		}
		if v[i].Fault.Seq != v[j].Fault.Seq {
			return v[i].Fault.Seq < v[j].Fault.Seq
		}
		return v[i].Invariant < v[j].Invariant
	})
}

// Faults returns how many faults have fired.
func (p *Plan) Faults() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Trace returns every fired fault, merged across sites and sorted by
// (site, sequence) — a canonical replayable description of the run's
// fault schedule, independent of interleaving between sites.
func (p *Plan) Trace() []Fault {
	p.mu.Lock()
	var out []Fault
	for _, s := range p.sites { // detvet:ok — out is sorted by (site, sequence) below
		out = append(out, s.trace...)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// TraceString renders the canonical trace one fault per line.
func (p *Plan) TraceString() string {
	var sb strings.Builder
	for _, f := range p.Trace() {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// allocConsult is one allocation-site consult: count it against the
// exhaustion budget, then draw for transient failure.
func (p *Plan) allocConsult(name string, n uint64, cause error) error {
	p.mu.Lock()
	s := p.siteLocked(name)
	s.consults++
	fail := p.cfg.AllocBudget > 0 && s.consults > p.cfg.AllocBudget
	if !fail && p.cfg.AllocFailProb > 0 {
		fail = s.rng.Float64() < p.cfg.AllocFailProb
	}
	if !fail {
		p.mu.Unlock()
		return nil
	}
	f := p.recordLocked(name, s, AllocFail, int64(n))
	p.mu.Unlock()
	p.checkAt(f)
	return &FaultError{Fault: f, Err: cause}
}

// AllocInjector returns an injector for mem.Buddy.Inject at the named
// site: probabilistic transient failures plus hard exhaustion after the
// configured budget. The returned error wraps cause (the caller's
// out-of-memory sentinel) in a *FaultError.
func (p *Plan) AllocInjector(name string, cause error) func(n uint64) error {
	return func(n uint64) error { return p.allocConsult(name, n, cause) }
}

// CPUAllocInjector returns an injector for mem.CPUCache.Inject: each
// CPU gets its own sub-site ("name/cpuK") and therefore its own stream,
// so one CPU's allocation pattern never perturbs another's fault
// schedule — the property that keeps per-CPU runs replayable.
func (p *Plan) CPUAllocInjector(name string, cause error) func(cpu int, n uint64) error {
	return func(cpu int, n uint64) error {
		return p.allocConsult(fmt.Sprintf("%s/cpu%d", name, cpu), n, cause)
	}
}

// IPIInjector returns an injector for machine.Machine.IPIFault at the
// named site: each consult may drop the IPI or delay it by up to
// IPIDelayMax cycles. Decisions draw from the destination CPU's
// sub-site stream, keying the schedule to the delivery target.
func (p *Plan) IPIInjector(name string) func(src, dst, vec int) (drop bool, delay int64) {
	return func(src, dst, vec int) (bool, int64) {
		p.mu.Lock()
		s := p.siteLocked(fmt.Sprintf("%s/cpu%d", name, dst))
		if p.cfg.IPIDropProb > 0 && s.rng.Float64() < p.cfg.IPIDropProb {
			f := p.recordLocked(fmt.Sprintf("%s/cpu%d", name, dst), s, IPIDrop, int64(vec))
			p.mu.Unlock()
			p.checkAt(f)
			return true, 0
		}
		if p.cfg.IPIDelayProb > 0 && p.cfg.IPIDelayMax > 0 && s.rng.Float64() < p.cfg.IPIDelayProb {
			d := 1 + s.rng.Int63n(p.cfg.IPIDelayMax)
			f := p.recordLocked(fmt.Sprintf("%s/cpu%d", name, dst), s, IPIDelay, d)
			p.mu.Unlock()
			p.checkAt(f)
			return false, d
		}
		p.mu.Unlock()
		return false, 0
	}
}

// TimerInjector returns an injector for machine.Machine.TimerFault at
// the named site: each timer (re)arm may be stretched by up to
// TimerJitterMax extra cycles, drawn from the owning CPU's sub-site.
func (p *Plan) TimerInjector(name string) func(cpu, vec int, delay int64) int64 {
	return func(cpu, vec int, delay int64) int64 {
		p.mu.Lock()
		s := p.siteLocked(fmt.Sprintf("%s/cpu%d", name, cpu))
		if p.cfg.TimerJitterProb <= 0 || p.cfg.TimerJitterMax <= 0 ||
			s.rng.Float64() >= p.cfg.TimerJitterProb {
			p.mu.Unlock()
			return 0
		}
		d := 1 + s.rng.Int63n(p.cfg.TimerJitterMax)
		f := p.recordLocked(fmt.Sprintf("%s/cpu%d", name, cpu), s, TimerJitter, d)
		p.mu.Unlock()
		p.checkAt(f)
		return d
	}
}

// WakeInjector returns an injector for nautilus.Kernel.WakeDelay at the
// named site: each idle-CPU dispatch after an event wake may be
// deferred by up to WakeDelayMax cycles. The dispatch is only ever
// delayed, never dropped — liveness is the invariant under test, not a
// fault to inject.
func (p *Plan) WakeInjector(name string) func() int64 {
	return func() int64 {
		p.mu.Lock()
		s := p.siteLocked(name)
		if p.cfg.WakeDelayProb <= 0 || p.cfg.WakeDelayMax <= 0 ||
			s.rng.Float64() >= p.cfg.WakeDelayProb {
			p.mu.Unlock()
			return 0
		}
		d := 1 + s.rng.Int63n(p.cfg.WakeDelayMax)
		f := p.recordLocked(name, s, WakeDelay, d)
		p.mu.Unlock()
		p.checkAt(f)
		return d
	}
}

// StepBudget returns the interpreter step budget this plan imposes:
// cfg.MaxSteps when set, else def (pass 0 to keep the engine default).
func (p *Plan) StepBudget(def int64) int64 {
	if p.cfg.MaxSteps > 0 {
		return p.cfg.MaxSteps
	}
	return def
}

// StepFault returns an interp.Hooks.StepLimit hook bound to the named
// site: when the interpreter exhausts its step budget, the hook records
// a StepBudget fault and substitutes a *FaultError wrapping cause
// (interp.ErrStepLimit), so budget exhaustion surfaces as a typed
// injected failure.
func (p *Plan) StepFault(name string, cause error) func() error {
	return func() error {
		p.mu.Lock()
		s := p.siteLocked(name)
		f := p.recordLocked(name, s, StepBudget, p.StepBudget(0))
		p.mu.Unlock()
		p.checkAt(f)
		return &FaultError{Fault: f, Err: cause}
	}
}
