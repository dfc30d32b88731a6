package omp

import "container/heap"

// TaskNode is one OpenMP task in a dependency graph (omp task with
// depend clauses): fine-grained parallelism of the kind the paper's
// granularity argument targets (§IV-C cites OpenMP tasking [5]).
type TaskNode struct {
	// Cycles is the task's execution cost.
	Cycles int64
	// Deps are indices of tasks that must complete first.
	Deps []int
}

// TaskGraphStats accumulate a RunTaskGraph execution.
type TaskGraphStats struct {
	Tasks          int64
	CriticalCycles int64 // longest dependency chain (work only)
	OverheadCycles int64
}

// RunTaskGraph executes a task DAG on the runtime's CPUs using list
// scheduling: a task becomes ready when its dependencies complete; the
// earliest-free worker runs the earliest-ready task. Per-task creation
// and dispatch overhead comes from the runtime mode (the kernel paths
// dispense tasks far more cheaply than user-level Linux, which is what
// makes fine granularity viable). Returns the completion time.
func (rt *Runtime) RunTaskGraph(nodes []TaskNode) (int64, TaskGraphStats) {
	n := rt.CPUs
	st := TaskGraphStats{Tasks: int64(len(nodes))}
	if len(nodes) == 0 {
		return 0, st
	}
	perTask := rt.taskDispatchCost()

	// Dependency bookkeeping.
	remaining := make([]int, len(nodes))
	dependents := make([][]int, len(nodes))
	for i, t := range nodes {
		remaining[i] = len(t.Deps)
		for _, d := range t.Deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	// readyAt[i]: time the task became ready (for FIFO ordering).
	finish := make([]int64, len(nodes))
	var ready []int
	for i, r := range remaining {
		if r == 0 {
			ready = append(ready, i)
		}
	}

	// Workers as an earliest-free heap.
	h := make(freeHeap, n)
	for w := 0; w < n; w++ {
		h[w] = workerFree{id: w, free: 0}
	}
	heap.Init(&h)

	completed := 0
	// pending tasks become ready as predecessors finish; we process in
	// rounds: pop the earliest-free worker, give it the first ready
	// task whose dependencies' finish times have passed... since the
	// worker can only start a task after both its own free time and the
	// task's ready time, track readyTime per task.
	readyTime := make([]int64, len(nodes))
	for len(ready) > 0 {
		// Pick the ready task with the smallest ready time (FIFO-ish,
		// deterministic by index on ties).
		best := 0
		for i := 1; i < len(ready); i++ {
			ti, tb := ready[i], ready[best]
			if readyTime[ti] < readyTime[tb] || (readyTime[ti] == readyTime[tb] && ti < tb) {
				best = i
			}
		}
		task := ready[best]
		ready = append(ready[:best], ready[best+1:]...)

		wf := heap.Pop(&h).(workerFree)
		start := wf.free
		if readyTime[task] > start {
			start = readyTime[task]
		}
		end := start + perTask + nodes[task].Cycles
		st.OverheadCycles += perTask
		finish[task] = end
		wf.free = end
		heap.Push(&h, wf)
		completed++

		for _, dep := range dependents[task] {
			remaining[dep]--
			if end > readyTime[dep] {
				readyTime[dep] = end
			}
			if remaining[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if completed != len(nodes) {
		panic("omp: task graph has a dependency cycle")
	}

	var makespan int64
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	// Critical path (work only) for reference.
	st.CriticalCycles = criticalPath(nodes)
	return makespan, st
}

// taskDispatchCost is the per-task create+dispatch overhead by mode.
func (rt *Runtime) taskDispatchCost() int64 {
	switch rt.Mode {
	case ModeLinux:
		// libomp task allocation, queue locking, possible futex wake.
		return 350
	case ModeCCK:
		// Compiler-generated tasks drop straight into the kernel task
		// framework.
		return rt.L.Model.Nautilus.EventWakeup / 2
	default:
		return rt.L.Model.Nautilus.EventWakeup
	}
}

// criticalPath returns the longest work-only chain through the DAG.
func criticalPath(nodes []TaskNode) int64 {
	memo := make([]int64, len(nodes))
	seen := make([]bool, len(nodes))
	var depth func(i int) int64
	depth = func(i int) int64 {
		if seen[i] {
			return memo[i]
		}
		seen[i] = true
		var best int64
		for _, d := range nodes[i].Deps {
			if v := depth(d); v > best {
				best = v
			}
		}
		memo[i] = best + nodes[i].Cycles
		return memo[i]
	}
	var m int64
	for i := range nodes {
		if v := depth(i); v > m {
			m = v
		}
	}
	return m
}

// FibTaskGraph builds the classic recursive-fib task DAG down to the
// given depth: each node spawns two children; leaves carry leafCycles of
// work, interior nodes combineCycles.
func FibTaskGraph(depth int, leafCycles, combineCycles int64) []TaskNode {
	var nodes []TaskNode
	var build func(d int) int
	build = func(d int) int {
		if d <= 1 {
			nodes = append(nodes, TaskNode{Cycles: leafCycles})
			return len(nodes) - 1
		}
		a := build(d - 1)
		b := build(d - 2)
		nodes = append(nodes, TaskNode{Cycles: combineCycles, Deps: []int{a, b}})
		return len(nodes) - 1
	}
	build(depth)
	return nodes
}
