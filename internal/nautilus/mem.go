package nautilus

import "repro/internal/mem"

// Simulated thread-state footprints: a full kernel thread carries a
// stack plus TCB; a fiber is lightweight by design (§III: "fibers ...
// have a much smaller memory footprint").
const (
	threadStateBytes = 16 << 10
	fiberStateBytes  = 4 << 10
)

// defaultZoneBytes sizes each per-socket NUMA zone when Config.ZoneBytes
// is left zero.
const defaultZoneBytes = 64 << 20

// MemStats aggregates the kernel's allocation-path accounting: the
// bookkeeping counters (allocation is instantaneous in simulated time —
// it models placement, not cost) plus the magazine front-end's totals.
type MemStats struct {
	StateAllocs      int64 // thread state blocks allocated
	StateAllocBytes  int64 // bytes of state allocated (block-rounded)
	StateAllocFailed int64 // allocations that failed (all zones full)
	Cache            mem.CPUCacheStats
	Zones            []mem.BuddyStats
}

// initMem builds the kernel's NUMA memory: one zone per socket (Nautilus
// selects a buddy allocator "based on the target zone"), each fronted by
// a per-CPU magazine cache so every CPU's allocation fast path is
// lock-free. Zone allocation is pure bookkeeping — it consumes no
// simulated cycles and its addresses feed no experiment output, so
// enabling it by default cannot perturb results.
func (k *Kernel) initMem() {
	zoneBytes := k.Cfg.ZoneBytes
	if zoneBytes == 0 || zoneBytes&(zoneBytes-1) != 0 {
		zoneBytes = defaultZoneBytes
	}
	numa, err := mem.NewNUMA(k.M.Topo().Sockets, zoneBytes, 6)
	if err != nil {
		panic("nautilus: " + err.Error())
	}
	if err := numa.AttachCaches(k.M.Topo().NumCPUs(), 0); err != nil {
		panic("nautilus: " + err.Error())
	}
	k.Mem = numa
}

// allocState allocates a state block for cpu from its socket's zone
// (bound threads keep "essential thread state ... in the most desirable
// zone"), falling back by distance under pressure. Returns 0 and counts
// a failure if every zone is full — the simulation carries on, threads
// just run stateless.
func (k *Kernel) allocState(cpu int, n uint64) (mem.Addr, uint64) {
	socket := k.M.CPUs[cpu].Socket
	a, err := k.Mem.AllocOn(cpu, socket, n)
	if err != nil {
		k.memStats.StateAllocFailed++
		return 0, 0
	}
	k.memStats.StateAllocs++
	k.memStats.StateAllocBytes += int64(k.Mem.Zones[0].Buddy.BlockSize(n))
	return a, n
}

// freeState releases a state block allocated by allocState.
func (k *Kernel) freeState(cpu int, a mem.Addr, n uint64) {
	if n == 0 {
		return
	}
	if err := k.Mem.FreeOn(cpu, a); err != nil {
		panic("nautilus: state free: " + err.Error())
	}
}

// MemStats snapshots the kernel's memory accounting. Callers must be
// quiesced relative to the simulation (CPUCache counters are per-CPU and
// unsynchronized), which is true between Engine runs.
func (k *Kernel) MemStats() MemStats {
	st := k.memStats
	for _, z := range k.Mem.Zones {
		st.Cache.Add(z.Cache.Stats())
		st.Zones = append(st.Zones, z.Cache.ZoneStats())
	}
	return st
}
