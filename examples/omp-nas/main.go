// Kernel OpenMP example (§V-A): run the NAS BT- and SP-shaped kernels
// under all four OpenMP execution paths — user-level Linux, runtime-in-
// kernel (RTK), process-in-kernel (PIK), and custom compilation for
// kernel (CCK) — across CPU counts, reproducing the shape of Fig. 6.
// Each runtime prices its regions in closed form from the CPU count and
// the KNL-like model, so no machine is built.
//
//	go run ./examples/omp-nas
package main

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/omp"
	"repro/internal/workloads"
)

func main() {
	kernels := []workloads.NASKernel{workloads.BT(), workloads.SP()}
	cpuCounts := []int{4, 16, 64}

	fmt.Println("NAS-shaped kernels under four OpenMP paths (KNL-like, relative to Linux)")
	fmt.Println()
	fmt.Printf("%-4s %5s %14s %6s %6s %6s\n", "kern", "CPUs", "linux (Mcyc)", "RTK", "PIK", "CCK")
	for _, k := range kernels {
		k.Steps = 6
		for _, cpus := range cpuCounts {
			times := map[omp.Mode]int64{}
			for _, mode := range []omp.Mode{omp.ModeLinux, omp.ModeRTK, omp.ModePIK, omp.ModeCCK} {
				times[mode] = omp.New(cpus, model.KNL(), mode, 42).RunKernel(k)
			}
			lx := float64(times[omp.ModeLinux])
			fmt.Printf("%-4s %5d %14.1f %6.2f %6.2f %6.2f\n",
				k.Name, cpus, lx/1e6,
				lx/float64(times[omp.ModeRTK]),
				lx/float64(times[omp.ModePIK]),
				lx/float64(times[omp.ModeCCK]))
		}
	}
	fmt.Println("\nvalues > 1.00 beat the Linux OpenMP baseline (paper: ~22% RTK geomean)")
}
