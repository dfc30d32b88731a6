package omp

import (
	"runtime/debug"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// TestPinnedRegionCycles pins what both region paths produce, cycle for
// cycle: RunKernel's completion time on a short BT and RunEPCC's
// per-region overhead on the three EPCC benchmarks, with the Stats each
// run accumulates, in every mode. Three and 256 CPUs leave a remainder
// when the loop is split, and CCK at 256 CPUs has more tasks than the
// small EPCC loop has items.
func TestPinnedRegionCycles(t *testing.T) {
	cases := []struct {
		mode        Mode
		cpus        int
		seed        uint64
		kernel      int64
		kernelStats Stats
		epcc        [3]float64
		epccStats   Stats
	}{
		// Stats fields in order: Regions, ForkCycles, BarrierCycles,
		// NoiseCycles, ComputeCycles, OverheadCycles, Tasks.
		{ModeLinux, 1, 1, 197327982, Stats{32, 160000, 48000, 14659182, 182400000, 14867182, 0}, [3]float64{8400, 8563, 51592.47999999998}, Stats{450, 2250000, 675000, 2192224, 26624000, 5117224, 0}},
		{ModeLinux, 1, 42, 197326412, Stats{32, 160000, 48000, 14657612, 182400000, 14865612, 0}, [3]float64{8400, 8563, 51502.80000000005}, Stats{450, 2250000, 675000, 2187740, 26624000, 5112740, 0}},
		{ModeLinux, 3, 1, 66281686, Stats{32, 240000, 96000, 14821001, 182400000, 15157001, 0}, [3]float64{16200, 16254, 30781.959999999992}, Stats{450, 3375000, 1350000, 2194634, 26624000, 6919634, 0}},
		{ModeLinux, 3, 42, 66252568, Stats{32, 240000, 96000, 14787915, 182400000, 15123915, 0}, [3]float64{16200, 16254, 30639.22}, Stats{450, 3375000, 1350000, 2166735, 26624000, 6891735, 0}},
		{ModeLinux, 64, 1, 4306409, Stats{32, 560000, 288000, 15102978, 182400000, 15950978, 0}, [3]float64{34100, 34102, 35079.96}, Stats{450, 7875000, 4050000, 2177277, 26624000, 14102277, 0}},
		{ModeLinux, 64, 42, 4285334, Stats{32, 560000, 288000, 15021648, 182400000, 15869648, 0}, [3]float64{34100, 34102, 35246.18}, Stats{450, 7875000, 4050000, 2183307, 26624000, 14108307, 0}},
		{ModeLinux, 256, 1, 2255400, Stats{32, 720000, 384000, 15074981, 182400000, 16178981, 0}, [3]float64{42100, 42100, 42777.94}, Stats{450, 10125000, 5400000, 2158588, 26624000, 17683588, 0}},
		{ModeLinux, 256, 42, 2221791, Stats{32, 720000, 384000, 15005113, 182400000, 16109113, 0}, [3]float64{42100, 42100, 42623.06}, Stats{450, 10125000, 5400000, 2145472, 26624000, 17670472, 0}},
		{ModeRTK, 1, 1, 182460800, Stats{32, 33600, 8000, 0, 182400000, 41600, 0}, [3]float64{1900, 1900, 1900}, Stats{450, 472500, 112500, 0, 26624000, 585000, 0}},
		{ModeRTK, 1, 42, 182460800, Stats{32, 33600, 8000, 0, 182400000, 41600, 0}, [3]float64{1900, 1900, 1900}, Stats{450, 472500, 112500, 0, 26624000, 585000, 0}},
		{ModeRTK, 3, 1, 60924800, Stats{32, 51200, 16000, 0, 182400000, 67200, 0}, [3]float64{3900, 3900, 3900}, Stats{450, 720000, 225000, 0, 26624000, 945000, 0}},
		{ModeRTK, 3, 42, 60924800, Stats{32, 51200, 16000, 0, 182400000, 67200, 0}, [3]float64{3900, 3900, 3900}, Stats{450, 720000, 225000, 0, 26624000, 945000, 0}},
		{ModeRTK, 64, 1, 3097920, Stats{32, 121600, 48000, 0, 182400000, 169600, 0}, [3]float64{7700, 7700, 7700}, Stats{450, 1710000, 675000, 0, 26624000, 2385000, 0}},
		{ModeRTK, 64, 42, 3097920, Stats{32, 121600, 48000, 0, 182400000, 169600, 0}, [3]float64{7700, 7700, 7700}, Stats{450, 1710000, 675000, 0, 26624000, 2385000, 0}},
		{ModeRTK, 256, 1, 1012000, Stats{32, 156800, 64000, 0, 182400000, 220800, 0}, [3]float64{9300, 9300, 9300}, Stats{450, 2205000, 900000, 0, 26624000, 3105000, 0}},
		{ModeRTK, 256, 42, 1012000, Stats{32, 156800, 64000, 0, 182400000, 220800, 0}, [3]float64{9300, 9300, 9300}, Stats{450, 2205000, 900000, 0, 26624000, 3105000, 0}},
		{ModePIK, 1, 1, 182473600, Stats{32, 46400, 8000, 0, 182400000, 54400, 0}, [3]float64{2300, 2300, 2300}, Stats{450, 652500, 112500, 0, 26624000, 765000, 0}},
		{ModePIK, 1, 42, 182473600, Stats{32, 46400, 8000, 0, 182400000, 54400, 0}, [3]float64{2300, 2300, 2300}, Stats{450, 652500, 112500, 0, 26624000, 765000, 0}},
		{ModePIK, 3, 1, 60937600, Stats{32, 64000, 16000, 0, 182400000, 80000, 0}, [3]float64{4300, 4300, 4300}, Stats{450, 900000, 225000, 0, 26624000, 1125000, 0}},
		{ModePIK, 3, 42, 60937600, Stats{32, 64000, 16000, 0, 182400000, 80000, 0}, [3]float64{4300, 4300, 4300}, Stats{450, 900000, 225000, 0, 26624000, 1125000, 0}},
		{ModePIK, 64, 1, 3110720, Stats{32, 134400, 48000, 0, 182400000, 182400, 0}, [3]float64{8100, 8100, 8100}, Stats{450, 1890000, 675000, 0, 26624000, 2565000, 0}},
		{ModePIK, 64, 42, 3110720, Stats{32, 134400, 48000, 0, 182400000, 182400, 0}, [3]float64{8100, 8100, 8100}, Stats{450, 1890000, 675000, 0, 26624000, 2565000, 0}},
		{ModePIK, 256, 1, 1024800, Stats{32, 169600, 64000, 0, 182400000, 233600, 0}, [3]float64{9700, 9700, 9700}, Stats{450, 2385000, 900000, 0, 26624000, 3285000, 0}},
		{ModePIK, 256, 42, 1024800, Stats{32, 169600, 64000, 0, 182400000, 233600, 0}, [3]float64{9700, 9700, 9700}, Stats{450, 2385000, 900000, 0, 26624000, 3285000, 0}},
		{ModeCCK, 1, 1, 182444800, Stats{32, 0, 0, 0, 182416000, 25600, 128}, [3]float64{1400, 1400, 1400}, Stats{450, 0, 0, 0, 26849000, 360000, 1800}},
		{ModeCCK, 1, 42, 182444800, Stats{32, 0, 0, 0, 182416000, 25600, 128}, [3]float64{1400, 1400, 1400}, Stats{450, 0, 0, 0, 26849000, 360000, 1800}},
		{ModeCCK, 3, 1, 60844800, Stats{32, 0, 0, 0, 182448000, 57600, 384}, [3]float64{1400, 1408, 1408}, Stats{450, 0, 0, 0, 27299000, 810000, 5400}},
		{ModeCCK, 3, 42, 60844800, Stats{32, 0, 0, 0, 182448000, 57600, 384}, [3]float64{1400, 1408, 1408}, Stats{450, 0, 0, 0, 27299000, 810000, 5400}},
		{ModeCCK, 64, 1, 2896320, Stats{32, 0, 0, 0, 183424000, 1033600, 8192}, [3]float64{1400, 1400, 1400}, Stats{450, 0, 0, 0, 41024000, 14535000, 115200}},
		{ModeCCK, 64, 42, 2896320, Stats{32, 0, 0, 0, 183424000, 1033600, 8192}, [3]float64{1400, 1400, 1400}, Stats{450, 0, 0, 0, 41024000, 14535000, 115200}},
		{ModeCCK, 256, 1, 759200, Stats{32, 0, 0, 0, 186496000, 4105600, 32768}, [3]float64{1400, 1025, 1400}, Stats{450, 0, 0, 0, 65024000, 38535000, 307200}},
		{ModeCCK, 256, 42, 759200, Stats{32, 0, 0, 0, 186496000, 4105600, 32768}, [3]float64{1400, 1025, 1400}, Stats{450, 0, 0, 0, 65024000, 38535000, 307200}},
	}
	for _, c := range cases {
		build := func() *Runtime {
			return New(c.cpus, model.KNL(), c.mode, c.seed)
		}
		rt := build()
		if got := rt.RunKernel(smallBT()); got != c.kernel || rt.Stats != c.kernelStats {
			t.Errorf("%s %d CPUs seed %d: RunKernel = %d %+v, want %d %+v",
				c.mode, c.cpus, c.seed, got, rt.Stats, c.kernel, c.kernelStats)
		}
		rt = build()
		var epcc [3]float64
		for i, b := range workloads.EPCC() {
			epcc[i] = rt.RunEPCC(b)
		}
		if epcc != c.epcc || rt.Stats != c.epccStats {
			t.Errorf("%s %d CPUs seed %d: RunEPCC = %v %+v, want %v %+v",
				c.mode, c.cpus, c.seed, epcc, rt.Stats, c.epcc, c.epccStats)
		}
	}
}

// TestRegionAllocFree checks that pricing a region allocates nothing
// once the runtime is warm, on both region paths.
func TestRegionAllocFree(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeCCK} {
		rt := New(64, model.KNL(), mode, 1)
		rt.region(60_000, 95, 64)
		if a := testing.AllocsPerRun(100, func() { rt.region(60_000, 95, 64) }); a != 0 {
			t.Errorf("%s: %.1f allocations per region, want 0", mode, a)
		}
	}
}

// TestRuntimeBuildsNoMachine checks that a runtime and a whole kernel
// run allocate the same six objects at any CPU count: the Runtime, its
// Linux model with that model's generator and noise distribution, and
// its own generator and noise distribution. Nothing is sized by the CPU
// count, so no machine, CPU or engine is built.
func TestRuntimeBuildsNoMachine(t *testing.T) {
	k := smallBT()
	for _, mode := range []Mode{ModeLinux, ModeRTK, ModePIK, ModeCCK} {
		for _, cpus := range []int{1, 64, 256} {
			debug.FreeOSMemory()
			a := testing.AllocsPerRun(20, func() { New(cpus, model.KNL(), mode, 1).RunKernel(k) })
			if a != 6 {
				t.Errorf("%s %d CPUs: %.1f allocations per runtime and kernel, want 6", mode, cpus, a)
			}
		}
	}
}
