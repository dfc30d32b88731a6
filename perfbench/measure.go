package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// pass is one measured repetition of a workload.
type pass struct {
	traced     bool
	wall, cpu  float64   // seconds of host wall and user+sys CPU time
	retainedMB float64   // live heap after a full GC, system still up
	computedMS []float64 // latency of each operation that computed its result
	// partWall and partCPU split wall and CPU seconds over the pass's
	// parts (the suite's experiments, the sweep's cells), which every
	// pass runs in the same order; empty for a pass that has none.
	partWall, partCPU []float64
	ops               int // operations attempted
	failed            int // operations that failed outright (digest checks come later)
	// counters are the pass's per-layer values other than the profile
	// split: spans, cache and pool deltas, runtime/metrics deltas.
	counters map[string]float64
	// profile is the traced pass's CPU split: <layer>.cpu_s,
	// profile.cpu_s and sim.barrier_cpu_s.
	profile map[string]float64
}

// meter times one pass's measured section: wall clock, process CPU,
// runtime/metrics deltas and, when traced, a CPU profile.
type meter struct {
	p       *pass
	t0      time.Time
	cpu0    float64
	rt0     []metrics.Sample
	profBuf bytes.Buffer
	// lastWall and lastCPU are where the current part began.
	lastWall time.Time
	lastCPU  float64
}

var rtMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, name := range rtMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// startMeter begins a pass; the caller must call stop exactly once.
func startMeter(traced bool) (*meter, error) {
	m := &meter{p: &pass{traced: traced, counters: map[string]float64{}}}
	if traced {
		if err := pprof.StartCPUProfile(&m.profBuf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	m.rt0 = readRuntime()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
	m.lastWall, m.lastCPU = m.t0, m.cpu0
	return m, nil
}

// mark ends one part of the pass and begins the next. Parts must not
// overlap, so it is called from one goroutine at a time.
func (m *meter) mark() {
	now, cpu := time.Now(), processCPU()
	m.p.partWall = append(m.p.partWall, now.Sub(m.lastWall).Seconds())
	m.p.partCPU = append(m.p.partCPU, cpu-m.lastCPU)
	m.lastWall, m.lastCPU = now, cpu
}

// passTimes estimates one pass's wall and CPU seconds. When every pass
// has the same parts, it sums each part's median over the passes: host
// speed on a shared machine drifts over seconds, and a per-part median
// drops a slow spell that hit one part of one pass, where a median of a
// few whole passes keeps it. Otherwise it takes the per-pass medians.
func passTimes(ps []*pass) (wall, cpu float64) {
	n := len(ps[0].partWall)
	for _, p := range ps {
		if len(p.partWall) != n {
			n = 0
		}
	}
	if n == 0 {
		var cpus []float64
		for _, p := range ps {
			cpus = append(cpus, p.cpu)
		}
		return median(walls(ps)), median(cpus)
	}
	for i := 0; i < n; i++ {
		var walls, cpus []float64
		for _, p := range ps {
			walls = append(walls, p.partWall[i])
			cpus = append(cpus, p.partCPU[i])
		}
		wall += median(walls)
		cpu += median(cpus)
	}
	return wall, cpu
}

// stop ends the measured section and returns the pass with its wall,
// CPU, runtime deltas and (traced) layer split filled in.
func (m *meter) stop() (*pass, error) {
	p := m.p
	p.wall = time.Since(m.t0).Seconds()
	p.cpu = processCPU() - m.cpu0
	rt1 := readRuntime()
	p.counters["runtime.alloc_mb"] = float64(rt1[0].Value.Uint64()-m.rt0[0].Value.Uint64()) / (1 << 20)
	p.counters["runtime.gc_cycles"] = float64(rt1[1].Value.Uint64() - m.rt0[1].Value.Uint64())
	if !p.traced {
		return p, nil
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(m.profBuf.Bytes())
	if err != nil {
		return nil, err
	}
	ls, err := prof.split()
	if err != nil {
		return nil, err
	}
	p.profile = map[string]float64{
		"profile.cpu_s":     float64(ls.totalNS) / 1e9,
		"sim.barrier_cpu_s": float64(ls.waitNS) / 1e9,
	}
	for _, l := range layers {
		p.profile[l+".cpu_s"] = float64(ls.cpuNS[l]) / 1e9
	}
	return p, nil
}

// processCPU returns the process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// liveHeapMB forces a full GC and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setupProbes is how many fresh processes time the workload's set-up;
// setup_s is their median.
const setupProbes = 41

// probeSetup measures set-up from process start: it starts this binary
// in -setup-probe mode n times; each child prints "ready" and the CPU
// seconds it has used since it started, at the moment its first
// operation could start, then tears down and exits (each is waited
// for). CPU time rather than wall time, because on a shared host the
// few milliseconds of a start-up are dominated by scheduling noise;
// CPU time still shows any work moved into set-up.
func probeSetup(name string, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	var times []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		werr := cmd.Wait()
		var cpu float64
		if _, err := fmt.Sscanf(line, "ready %g\n", &cpu); err != nil || rerr != nil || werr != nil {
			return 0, fmt.Errorf("setup probe %s: read %q (%v), exit %v", name, line, rerr, werr)
		}
		times = append(times, cpu)
	}
	return median(times), nil
}

// runSetupProbe is the child side of probeSetup.
func runSetupProbe(name string) error {
	w, err := newWorkload(name, 0)
	if err != nil {
		return err
	}
	teardown, err := w.setup()
	if err != nil {
		return err
	}
	fmt.Printf("ready %g\n", processCPU())
	return teardown()
}
