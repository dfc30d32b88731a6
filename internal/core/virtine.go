package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/virtine"
)

// fibModule builds the paper's Fig. 5 running example.
func fibModule() *ir.Module {
	m := ir.NewModule("fib")
	f := m.NewFunction("fib", 1)
	b := ir.NewBuilder(f)
	n := b.Param(0)
	two := b.Const(2)
	base := b.Block("base")
	rec := b.Block("rec")
	b.Br(b.ICmp(ir.PredLT, n, two), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	one := b.Const(1)
	x := b.Call("fib", b.Sub(n, one))
	y := b.Call("fib", b.Sub(n, two))
	b.Ret(b.Add(x, y))
	return m
}

// Virtines regenerates the §IV-D result: start-up latency by path
// (cold / snapshot / pooled), bespoke-context savings (§V-E), and the
// conventional isolation baselines, running the Fig. 5 fib example in
// genuinely isolated contexts.
func (s *Stack) Virtines() *Table {
	t := &Table{
		ID:     "virtine",
		Title:  "Virtine start-up latency by path (fib example, Fig. 5)",
		Header: []string{"path / context", "startup", "exec", "total", "result"},
	}
	w := virtine.NewWasp(s.Model)
	spec := &virtine.Spec{Mod: fibModule(), Entry: "fib", Boot: virtine.Boot64, NeedFP: true, NeedIO: true}

	for _, path := range []virtine.StartPath{virtine.StartCold, virtine.StartSnapshot, virtine.StartPooled} {
		// Prime snapshot/pool paths so the steady-state cost shows.
		if path != virtine.StartCold {
			if _, _, err := w.Invoke(spec, path, 10); err != nil {
				panic(err)
			}
		}
		ret, lat, err := w.Invoke(spec, path, 10)
		if err != nil {
			panic(err)
		}
		t.AddRow(path.String(), s.us(lat.StartupCycles), s.us(lat.ExecCycles), s.us(lat.Total()), i64(int64(ret)))
	}

	// Bespoke contexts: the same function needing less environment.
	for _, boot := range []virtine.BootLevel{virtine.Boot16, virtine.Boot32, virtine.Boot64} {
		sp := &virtine.Spec{Mod: fibModule(), Entry: "fib", Boot: boot}
		cold := w.Model.Virtine.VMCreate + w.BootCycles(sp)
		t.AddRow("bespoke "+boot.String()+" (cold)", s.us(cold), "", "", "")
	}

	t.AddRow("baseline fork/exec", s.us(w.ProcessBaselineCycles()), "", "", "")
	t.AddRow("baseline container", s.us(w.ContainerBaselineCycles()), "", "", "")

	// Service under load: Poisson arrivals at one request per 150 µs,
	// 10 µs of function work, per-request isolation. The pooled-virtine
	// and fork/exec simulations are independent cells: each gets a
	// generator pre-split from the stack seed in index order, so the
	// results are bit-identical at any pool width.
	svc := virtine.ServiceConfig{
		ArrivalMeanCycles: 150_000, Requests: 4000, ExecCycles: 10_000,
	}
	pooled := svc
	pooled.StartupCycles = s.Model.Virtine.PoolHandoff
	fork := svc
	fork.StartupCycles = w.ProcessBaselineCycles()
	cfgs := []virtine.ServiceConfig{pooled, fork}
	root := sim.NewRNG(s.Seed)
	rngs := make([]*sim.RNG, len(cfgs))
	for i := range rngs {
		rngs[i] = root.Split()
	}
	svcRes := runCells(s, "virtine-svc", len(cfgs), func(i int) virtine.ServiceResult {
		c := cfgs[i]
		c.RNG = rngs[i]
		return virtine.SimulateService(c)
	})
	rp, rf := svcRes[0], svcRes[1]
	t.AddRow("service p99 (pooled virtines)", s.us(int64(rp.Latency.P99)), "", "",
		fmt.Sprintf("util %.0f%%", rp.Utilization*100))
	t.AddRow("service p99 (fork/exec)", s.us(int64(rf.Latency.P99)), "", "",
		fmt.Sprintf("util %.0f%%", rf.Utilization*100))
	t.AddNote("paper: start-up overheads as low as 100µs; bespoke contexts (§V-E) can stop boot in 16-bit mode for simple services")
	t.AddNote("under a 1-request-per-150µs load, per-request fork isolation saturates while pooled virtines stay near service time")
	return t
}

// Pipeline regenerates the §V-D result: interrupt delivery latency under
// IDT dispatch vs pipeline (branch-injection) delivery, and the usable
// preemption granularity each permits.
func (s *Stack) Pipeline() *Table {
	t := &Table{
		ID:     "pipeline",
		Title:  "Interrupt delivery: IDT dispatch vs pipeline injection",
		Header: []string{"metric", "IDT", "pipeline", "improvement"},
	}
	r := pipelineCompare(s)
	t.AddRow("mean latency (cyc)", f1(r.idtMean), f1(r.pipeMean), f1(r.idtMean/r.pipeMean)+"x")
	t.AddRow("p99 latency (cyc)", f1(r.idtP99), f1(r.pipeP99), f1(r.idtP99/r.pipeP99)+"x")
	t.AddRow("min period @5% ovh (cyc)", i64(r.idtGran), i64(r.pipeGran),
		f1(float64(r.idtGran)/float64(r.pipeGran))+"x")
	t.AddNote("paper: dispatch costs ~1000 cycles; branch-injected delivery would be 100-1000x better; candidates: LAPIC timer, #MF/#XF, #GP")
	return t
}

// pipelineResult adapts pipeline.Compare for the table layer.
type pipelineResult struct {
	idtMean, pipeMean float64
	idtP99, pipeP99   float64
	idtGran, pipeGran int64
}

func pipelineCompare(s *Stack) pipelineResult {
	cfg := pipeline.DefaultConfig()
	cfg.Seed = s.Seed
	r := pipeline.Compare(s.Model, cfg)
	idtG, pipeG := pipeline.MinGranularity(s.Model, 0.05)
	return pipelineResult{
		idtMean: r.IDT.Mean, pipeMean: r.Pipeline.Mean,
		idtP99: r.IDT.P99, pipeP99: r.Pipeline.P99,
		idtGran: idtG, pipeGran: pipeG,
	}
}
