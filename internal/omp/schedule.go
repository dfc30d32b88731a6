package omp

import "container/heap"

// Schedule selects the OpenMP loop schedule. The EPCC suite (which all
// three kernel paths run, §V-A) measures exactly these: schedule
// overhead vs load balance.
type Schedule int

// Schedules.
const (
	SchedStatic Schedule = iota
	SchedDynamic
	SchedGuided
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case SchedDynamic:
		return "dynamic"
	case SchedGuided:
		return "guided"
	default:
		return "static"
	}
}

// GrabCost returns the per-chunk dispensing cost for this runtime mode:
// an atomic fetch-add on the shared loop descriptor plus the mode's
// cache/synchronization baggage.
func (rt *Runtime) GrabCost() int64 {
	base := rt.L.Model.HW.CacheLineTransfer // the descriptor line bounces
	switch rt.Mode {
	case ModeLinux:
		return base + 60 // user-space libomp descriptor + TLS indirection
	default:
		return base + 15 // kernel runtime keeps the descriptor hot
	}
}

type workerFree struct {
	id   int
	free int64
}

type freeHeap []workerFree

func (h freeHeap) Len() int { return len(h) }
func (h freeHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h freeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *freeHeap) Push(x any)   { *h = append(*h, x.(workerFree)) }
func (h *freeHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// RunLoop executes one parallel loop whose iteration i costs costOf(i)
// cycles, under the given schedule, and returns the loop's completion
// time (max worker finish, including fork/barrier). The execution is a
// deterministic list-scheduling simulation: whichever worker frees first
// grabs the next chunk.
func (rt *Runtime) RunLoop(items int64, costOf func(int64) int64, sched Schedule, chunk int64) int64 {
	n := rt.CPUs
	if chunk <= 0 {
		chunk = 1
	}
	c := rt.Costs
	levels := log2ceil(n)
	forkCost := levels*c.ForkHop + c.RegionConst
	rt.Stats.Regions++
	rt.Stats.ForkCycles += forkCost
	rt.Stats.OverheadCycles += forkCost

	finish := make([]int64, n)
	for w := range finish {
		finish[w] = forkCost + c.WakeLatency
	}

	switch sched {
	case SchedStatic:
		// Contiguous blocks, one per worker, zero dispensing cost.
		per := items / int64(n)
		rem := items % int64(n)
		var lo int64
		for w := 0; w < n; w++ {
			cnt := per
			if int64(w) < rem {
				cnt++
			}
			for i := lo; i < lo+cnt; i++ {
				finish[w] += costOf(i)
			}
			lo += cnt
		}
	case SchedDynamic, SchedGuided:
		grab := rt.GrabCost()
		h := make(freeHeap, n)
		for w := 0; w < n; w++ {
			h[w] = workerFree{id: w, free: finish[w]}
		}
		heap.Init(&h)
		var next int64
		remaining := items
		for next < items {
			wf := heap.Pop(&h).(workerFree)
			sz := chunk
			if sched == SchedGuided {
				sz = remaining / int64(2*n)
				if sz < chunk {
					sz = chunk
				}
			}
			if sz > items-next {
				sz = items - next
			}
			var cost int64 = grab
			rt.Stats.OverheadCycles += grab
			for i := next; i < next+sz; i++ {
				cost += costOf(i)
			}
			next += sz
			remaining -= sz
			wf.free += cost
			finish[wf.id] = wf.free
			heap.Push(&h, wf)
		}
	}

	var maxF int64
	for _, f := range finish {
		if f > maxF {
			maxF = f
		}
	}
	barrier := levels * c.BarrierHop
	rt.Stats.BarrierCycles += barrier
	rt.Stats.OverheadCycles += barrier
	return maxF + barrier
}

// UniformCost returns a costOf for uniform iterations.
func UniformCost(c int64) func(int64) int64 {
	return func(int64) int64 { return c }
}

// TriangularCost returns a costOf with linearly growing iteration cost
// (LU-solver-like imbalance): cost(i) = base + i*slopeNum/slopeDen.
func TriangularCost(base, slopeNum, slopeDen int64) func(int64) int64 {
	if slopeDen <= 0 {
		slopeDen = 1
	}
	return func(i int64) int64 { return base + i*slopeNum/slopeDen }
}
