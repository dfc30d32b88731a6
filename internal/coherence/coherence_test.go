package coherence

import (
	"testing"

	"repro/internal/mem"
)

func smallConfig(deact bool) Config {
	cfg := DefaultConfig()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.Deactivation = deact
	return cfg
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(1024, 2, 64) // 8 sets x 2 ways
	line := c.LineAddr(mem.Addr(0x1000))
	if c.Lookup(line) != Invalid {
		t.Fatal("cold lookup should miss")
	}
	c.Fill(line, Exclusive)
	if c.Lookup(line) != Exclusive {
		t.Fatal("fill not visible")
	}
	if c.Peek(line) != Exclusive {
		t.Fatal("peek wrong")
	}
	c.SetState(line, Modified)
	if c.Peek(line) != Modified {
		t.Fatal("SetState failed")
	}
	if got := c.Invalidate(line); got != Modified {
		t.Fatalf("invalidate returned %v", got)
	}
	if c.Peek(line) != Invalid {
		t.Fatal("line still present")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(128, 2, 64) // 1 set, 2 ways
	c.Fill(1, Shared)
	c.Fill(2, Shared)
	c.Lookup(1) // make 2 the LRU
	ev, evs := c.Fill(3, Shared)
	if evs == Invalid {
		t.Fatal("expected eviction")
	}
	if ev != 2 {
		t.Fatalf("evicted line %d, want 2 (LRU)", ev)
	}
	if c.Peek(1) == Invalid || c.Peek(3) == Invalid {
		t.Fatal("resident set wrong")
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, g := range []struct {
		name                 string
		size, ways, lineSize int
	}{
		{"size 0", 0, 1, 64},
		{"ways 0", 1024, 0, 64},
		{"line size 0", 1024, 1, 0},
		// LineAddr would shift by 64 while the set count used 48.
		{"line size 48", 1536, 2, 48},
	} {
		t.Run(g.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCache(%d, %d, %d) did not panic", g.size, g.ways, g.lineSize)
				}
			}()
			NewCache(g.size, g.ways, g.lineSize)
		})
	}
}

// TestNewRejectsCoreCount checks the core counts a directory record
// cannot represent: owner and sharer count are packed in 16 bits each.
func TestNewRejectsCoreCount(t *testing.T) {
	for _, cores := range []int{0, 1 << 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New with %d cores did not panic", cores)
				}
			}()
			cfg := DefaultConfig()
			cfg.Sockets, cfg.CoresPerSocket = 1, cores
			New(cfg)
		}()
	}
}

func TestStateString(t *testing.T) {
	if Modified.String() != "M" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Invalid.String() != "I" {
		t.Fatal("state names wrong")
	}
}

func TestMESIExclusiveOnFirstRead(t *testing.T) {
	s := New(smallConfig(false))
	s.Access(0, 0x1000, false)
	line := s.l1[0].LineAddr(0x1000)
	if st := s.l1[0].Peek(line); st != Exclusive {
		t.Fatalf("first reader state = %v, want E", st)
	}
}

func TestMESISharedOnSecondRead(t *testing.T) {
	s := New(smallConfig(false))
	s.Access(0, 0x1000, false)
	s.Access(1, 0x1000, false)
	line := s.l1[0].LineAddr(0x1000)
	if st := s.l1[1].Peek(line); st != Shared {
		t.Fatalf("second reader state = %v, want S", st)
	}
}

func TestMESIWriteInvalidatesSharers(t *testing.T) {
	s := New(smallConfig(false))
	s.Access(0, 0x1000, false)
	s.Access(1, 0x1000, false)
	s.Access(2, 0x1000, true) // write: must invalidate 0 and 1
	line := s.l1[0].LineAddr(0x1000)
	if s.l1[0].Peek(line) != Invalid || s.l1[1].Peek(line) != Invalid {
		t.Fatal("sharers not invalidated")
	}
	if s.l1[2].Peek(line) != Modified {
		t.Fatal("writer not M")
	}
	if s.Stats.Invalidations < 2 {
		t.Fatalf("invalidations = %d", s.Stats.Invalidations)
	}
}

func TestMESIUpgradeFromShared(t *testing.T) {
	s := New(smallConfig(false))
	s.Access(0, 0x1000, false)
	s.Access(1, 0x1000, false)
	s.Access(0, 0x1000, true) // S->M upgrade in core 0's own cache
	line := s.l1[0].LineAddr(0x1000)
	if s.l1[0].Peek(line) != Modified {
		t.Fatal("upgrade failed")
	}
	if s.l1[1].Peek(line) != Invalid {
		t.Fatal("other sharer survived upgrade")
	}
	if s.Stats.UpgradeMisses != 1 {
		t.Fatalf("upgrade misses = %d", s.Stats.UpgradeMisses)
	}
}

func TestMESIOwnerForwardOnRead(t *testing.T) {
	s := New(smallConfig(false))
	s.Access(0, 0x1000, true) // core 0 has M
	s.Access(1, 0x1000, false)
	line := s.l1[0].LineAddr(0x1000)
	if s.Stats.OwnerForwards != 1 {
		t.Fatalf("owner forwards = %d, want 1", s.Stats.OwnerForwards)
	}
	if s.l1[0].Peek(line) != Shared || s.l1[1].Peek(line) != Shared {
		t.Fatal("both copies should be S after forward")
	}
}

func TestMESIL1HitFast(t *testing.T) {
	s := New(smallConfig(false))
	cold := s.Access(0, 0x1000, false)
	warm := s.Access(0, 0x1000, false)
	if warm >= cold {
		t.Fatalf("warm %d >= cold %d", warm, cold)
	}
	if warm != s.Cfg.Costs.L1Hit {
		t.Fatalf("L1 hit latency = %d", warm)
	}
}

func TestPrivateDeactivationSkipsDirectory(t *testing.T) {
	s := New(smallConfig(true))
	s.Classify(0x1000, 4096, ClassPrivate, -1)
	s.Access(0, 0x1000, true)
	s.Access(0, 0x1040, true)
	if s.Stats.DirLookups != 0 {
		t.Fatalf("directory touched %d times for private data", s.Stats.DirLookups)
	}
	if s.Stats.DeactivatedAcc != 2 {
		t.Fatalf("deactivated accesses = %d", s.Stats.DeactivatedAcc)
	}
	if s.dir.n != 0 {
		t.Fatal("directory state allocated for private lines")
	}
}

func TestPrivateWithoutDeactivationUsesDirectory(t *testing.T) {
	s := New(smallConfig(false))
	s.Classify(0x1000, 4096, ClassPrivate, -1) // classified but feature off
	s.Access(0, 0x1000, true)
	if s.Stats.DirLookups == 0 {
		t.Fatal("with deactivation off, even private data must use the directory")
	}
}

func TestReadOnlyReplication(t *testing.T) {
	s := New(smallConfig(true))
	s.Classify(0x2000, 4096, ClassReadOnly, -1)
	for core := 0; core < 4; core++ {
		s.Access(core, 0x2000, false)
	}
	// All four cores replicate with zero invalidations and zero
	// directory state.
	line := s.l1[0].LineAddr(0x2000)
	for core := 0; core < 4; core++ {
		if s.l1[core].Peek(line) == Invalid {
			t.Fatalf("core %d lost its replica", core)
		}
	}
	if s.Stats.Invalidations != 0 || s.Stats.DirLookups != 0 {
		t.Fatal("read-only replication caused coherence traffic")
	}
}

func TestProducerConsumerSteering(t *testing.T) {
	s := New(smallConfig(true))
	s.Classify(0x3000, 4096, ClassProducerConsumer, 0)
	s.Access(0, 0x3000, true)  // producer writes
	s.Access(2, 0x3000, false) // consumer reads: direct steer
	if s.Stats.DirectSteers != 1 {
		t.Fatalf("direct steers = %d, want 1", s.Stats.DirectSteers)
	}
	if s.Stats.OwnerForwards != 0 {
		t.Fatal("steered read went through the directory owner-forward path")
	}
}

func TestPingPongDeactivationSpeedsUp(t *testing.T) {
	// The Fig. 7 mechanism in miniature: a producer/consumer line
	// bouncing between cores is much cheaper with steering than with
	// reactive MESI's 3-hop forwards.
	run := func(deact bool) (int64, float64) {
		s := New(smallConfig(deact))
		s.Classify(0x3000, 64, ClassProducerConsumer, 0)
		for i := 0; i < 1000; i++ {
			s.Access(0, 0x3000, true)
			s.Access(3, 0x3000, false)
		}
		return s.Stats.SumCycles(), s.Stats.EnergyPJ
	}
	base, baseE := run(false)
	fast, fastE := run(true)
	if fast >= base {
		t.Fatalf("deactivated %d >= baseline %d cycles", fast, base)
	}
	if fastE >= baseE {
		t.Fatalf("deactivated energy %f >= baseline %f", fastE, baseE)
	}
}

func TestPrivateDataEnergySavings(t *testing.T) {
	run := func(deact bool) float64 {
		s := New(smallConfig(deact))
		s.Classify(0x10000, 1<<20, ClassPrivate, -1)
		for core := 0; core < 4; core++ {
			base := mem.Addr(0x10000 + core*65536)
			for i := 0; i < 2000; i++ {
				s.Access(core, base+mem.Addr(i*64%4096), i%3 == 0)
			}
		}
		return s.Stats.EnergyPJ
	}
	baseE := run(false)
	fastE := run(true)
	if fastE >= baseE {
		t.Fatalf("private-data energy %f >= baseline %f", fastE, baseE)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := smallConfig(false)
	cfg.L1Size = 128 // 2 lines: force evictions
	cfg.L1Ways = 2
	cfg.L2Size = 128
	cfg.L2Ways = 2
	s := New(cfg)
	s.Access(0, 0x0000, true)
	s.Access(0, 0x4000, true)
	s.Access(0, 0x8000, true) // evicts a dirty line from the 1-set caches
	if s.Stats.WritebacksDir == 0 {
		t.Fatal("dirty eviction produced no writeback")
	}
}

func TestCrossSocketCostsMore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Deactivation = false
	s := New(cfg)
	// Warm the line into core 0 (socket 0) as M.
	s.Access(0, 0x5000, true)
	sameSock := s.Access(1, 0x5000, false)
	// Re-establish M on core 0.
	s.Access(0, 0x5000, true)
	crossSock := s.Access(13, 0x5000, false) // socket 1
	if crossSock <= sameSock {
		t.Fatalf("cross-socket read %d <= same-socket %d", crossSock, sameSock)
	}
}

func TestClassOfUnclassifiedIsDefault(t *testing.T) {
	s := New(smallConfig(true))
	s.Classify(0x1000, 64, ClassPrivate, -1)
	if cl, _ := s.classOf(0x900); cl != ClassDefault {
		t.Fatal("address before region misclassified")
	}
	if cl, _ := s.classOf(0x1040); cl != ClassDefault {
		t.Fatal("address after region misclassified")
	}
	if cl, _ := s.classOf(0x1020); cl != ClassPrivate {
		t.Fatal("address inside region misclassified")
	}
}

func TestSharingClassString(t *testing.T) {
	for cl, want := range map[SharingClass]string{
		ClassDefault: "default", ClassPrivate: "private",
		ClassReadOnly: "read-only", ClassProducerConsumer: "producer-consumer",
	} {
		if cl.String() != want {
			t.Fatalf("%d -> %s", cl, cl.String())
		}
	}
}

func TestStatsTotals(t *testing.T) {
	s := New(smallConfig(false))
	s.Access(0, 0x1000, false)
	s.Access(1, 0x2000, false)
	if s.Stats.TotalCycles() <= 0 || s.Stats.SumCycles() < s.Stats.TotalCycles() {
		t.Fatal("cycle accounting inconsistent")
	}
	if s.Cores() != 4 {
		t.Fatal("core count wrong")
	}
}
