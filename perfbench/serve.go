package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serveVariant is one job shape of the serve-mixed stream: one of the 11
// sub-second experiments, and for three of them a sub-report variant
// that shares cells with the plain form (so the cell tier can hit).
type serveVariant struct {
	experiment string
	modify     func(*core.RunConfig)
}

func (v serveVariant) config(seed uint64) core.RunConfig {
	cfg := core.DefaultRunConfig(v.experiment)
	cfg.Seed = seed
	if v.modify != nil {
		v.modify(&cfg)
	}
	return cfg
}

var serveVariants = []serveVariant{
	{"nautilus", nil},
	{"fig4", nil},
	{"fig4", func(c *core.RunConfig) { c.Granularity = true }},
	{"carat", nil},
	{"carat", func(c *core.RunConfig) { c.Mobility = true }},
	{"fig6", nil},
	{"fig6", func(c *core.RunConfig) { c.EPCC = true }},
	{"virtine", nil},
	{"pipeline", nil},
	{"blending", nil},
	{"consistency", nil},
	{"riscv", nil},
	{"paging", nil},
	{"tasks", nil},
}

const (
	// Each pass submits, for every variant, serveDistinct configurations
	// (seeds drawn from serveSeedUniverse) and serveRepeats resubmissions
	// of them: 38% of submissions repeat an earlier config. Only which
	// seeds and the order depend on --seed, so every run computes the
	// same mix of experiments and the latency distribution stays
	// comparable across seeds.
	serveDistinct = 10
	serveRepeats  = 6
	// serveClients is the closed loop's width: each client submits its
	// next job only once the previous result has arrived.
	serveClients = 2
)

// serveSeedUniverse is the pool the stream draws seeds from;
// golden.json covers all of it.
func serveSeedUniverse() []uint64 {
	u := make([]uint64, 64)
	for i := range u {
		u[i] = uint64(i + 1)
	}
	return u
}

// serveStream is one pass's job sequence, a pure function of the run's
// seed and the pass index.
func serveStream(seed uint64, pass int) []core.RunConfig {
	r := rand.New(rand.NewPCG(seed, uint64(pass)))
	var jobs []core.RunConfig
	for _, v := range serveVariants {
		u := serveSeedUniverse()
		r.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
		for _, s := range u[:serveDistinct] {
			jobs = append(jobs, v.config(s))
		}
		for i := 0; i < serveRepeats; i++ {
			jobs = append(jobs, v.config(u[r.IntN(serveDistinct)]))
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// daemon is an in-process interweaved on a loopback port, with a
// disk-backed cache in a fresh directory under .bench_build.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	core.VersionSalt()
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build/tmp", "serve-mixed-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv: serve.New(serve.Options{
			Workers:  2,
			Parallel: 2,
			Cache:    cache.New(cache.Config{Dir: dir}),
		}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients * 2}},
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	if _, err := d.stats(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon, waits for its serve loop, and removes the
// cache directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemon) stats() (serve.StatsSnapshot, error) {
	var st serve.StatsSnapshot
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Response classes, from the POST's status and deduplicated/state fields.
const (
	classComputed = iota // new job: the daemon computed it
	classRepeat          // deduplicated onto a job already done
	classJoin            // deduplicated onto a job still queued or running
	classCached          // new job whose table set a cache tier served
)

// outcome is one submission as the client saw it.
type outcome struct {
	ok        bool
	class     int
	latency   time.Duration // POST start to the last byte of /result
	queueWait time.Duration // queued → running event timestamps
	run       time.Duration // running → done event timestamps
	cellHits  int           // cell events served from a cache tier
}

// submit drives one job through the API: POST, follow /events to the
// terminal event, GET /result.
func (d *daemon) submit(cfg core.RunConfig, chk *checker) outcome {
	var o outcome
	body, err := json.Marshal(serve.WireConfig(cfg))
	if err != nil {
		return o
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return o
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case err != nil:
		return o
	case resp.StatusCode == http.StatusAccepted:
		o.class = classComputed
	case resp.StatusCode == http.StatusOK && st.Deduplicated && st.State == serve.StateDone:
		o.class = classRepeat
	case resp.StatusCode == http.StatusOK && st.Deduplicated:
		o.class = classJoin
	default:
		return o
	}

	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return o
	}
	var queued, running, final time.Time
	var terminal string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			break
		}
		at, err := time.Parse(time.RFC3339Nano, ev.Time)
		if err != nil {
			break
		}
		switch ev.Type {
		case "queued":
			queued = at
		case "running":
			running = at
		case "cell":
			if ev.Source != cache.SourceComputed.String() {
				o.cellHits++
			}
		default:
			terminal, final = ev.Type, at
		}
	}
	resp.Body.Close()
	if terminal != "done" {
		return o
	}
	o.queueWait, o.run = running.Sub(queued), final.Sub(running)

	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return o
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	if o.class == classComputed && resp.Header.Get("X-Result-Source") != cache.SourceComputed.String() {
		o.class = classCached
	}
	chk.observe(configName(cfg), kindServe, resp.Header.Get("X-Result-Digest")+" "+textHash(text),
		func() ([]*core.Table, error) { return runConfig(cfg) })
	o.ok = true
	return o
}

// serveMixed is the daemon's user-facing latency: cache writes
// (computes, puts, spill writes) and cache reads (cell hits, repeats) in
// one pass, with interp, mem, nautilus and omp doing most of the
// simulation work. Every pass starts a fresh daemon on an empty cache.
func serveMixed(seed uint64, chk *checker) *workload {
	npass := 0
	return &workload{
		name:      "serve-mixed",
		chk:       chk,
		minPasses: 3,
		setup: func() (func() error, error) {
			d, err := startDaemon()
			if err != nil {
				return nil, err
			}
			return d.stop, nil
		},
		pass: func(traced bool) (*pass, error) {
			jobs := serveStream(seed, npass)
			npass++
			d, err := startDaemon()
			if err != nil {
				return nil, err
			}
			before, err := d.stats()
			if err != nil {
				d.stop()
				return nil, err
			}
			outs := make([]outcome, len(jobs))
			var next atomic.Int64
			var wg sync.WaitGroup
			m, err := startMeter(traced)
			if err != nil {
				d.stop()
				return nil, err
			}
			wg.Add(serveClients)
			for c := 0; c < serveClients; c++ {
				go func() {
					defer wg.Done()
					for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
						outs[i] = d.submit(jobs[i], chk)
					}
				}()
			}
			wg.Wait()
			p, err := m.stop()
			if err != nil {
				d.stop()
				return nil, err
			}
			after, err := d.stats()
			if err != nil {
				d.stop()
				return nil, err
			}
			p.retainedMB = liveHeapMB()
			if err := d.stop(); err != nil {
				return nil, err
			}
			summarizeServe(p, outs, before, after)
			return p, nil
		},
	}
}

// summarizeServe fills a serve-mixed pass from its outcomes and the
// /v1/stats delta across it.
func summarizeServe(p *pass, outs []outcome, before, after serve.StatsSnapshot) {
	var repeats, waits, runs []float64
	dedup, joins, cellHits := 0, 0, 0
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, o := range outs {
		p.ops++
		if !o.ok {
			p.failed++
			continue
		}
		switch o.class {
		case classComputed:
			p.computedMS = append(p.computedMS, ms(o.latency))
			waits = append(waits, ms(o.queueWait))
			runs = append(runs, ms(o.run))
			cellHits += o.cellHits
		case classRepeat:
			repeats = append(repeats, ms(o.latency))
			dedup++
		case classJoin:
			dedup++
			joins++
		}
	}
	c := p.counters
	c["serve.repeat_p50_ms"] = stats.Percentile(repeats, 50)
	c["serve.queue_wait_p50_ms"] = stats.Percentile(waits, 50)
	c["serve.run_p50_ms"] = stats.Percentile(runs, 50)
	c["serve.dedup_ratio"] = float64(dedup) / float64(len(outs))
	c["serve.joins"] = float64(joins)
	jobs := 0
	for _, n := range after.Jobs {
		jobs += n
	}
	c["serve.jobs_retained"] = float64(jobs)
	c["cache.cell_hits"] = float64(cellHits)
	c["exp.cells"] = float64(after.Pool.Cells - before.Pool.Cells)
	if before.Cache != nil && after.Cache != nil {
		hits := float64(after.Cache.Hits - before.Cache.Hits)
		misses := float64(after.Cache.Misses - before.Cache.Misses)
		if hits+misses > 0 {
			c["cache.hit_ratio"] = hits / (hits + misses)
		}
		if misses > 0 {
			c["cache.spill_reads_per_miss"] = float64(after.Cache.SpillReads-before.Cache.SpillReads) / misses
		}
	}
}
