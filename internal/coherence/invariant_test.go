package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// checkSWMR validates the single-writer/multiple-reader invariant for
// every line present in any private cache: at most one M or E copy
// system-wide, and an M/E copy excludes any other copy of the line.
func checkSWMR(t *testing.T, s *System, lines []uint64) {
	t.Helper()
	for _, line := range lines {
		owners := 0
		sharers := 0
		for c := 0; c < s.cores; c++ {
			st := s.l1[c].Peek(line)
			if st == Invalid {
				st = s.l2[c].Peek(line)
			}
			switch st {
			case Modified, Exclusive:
				owners++
			case Shared:
				sharers++
			}
		}
		if owners > 1 {
			t.Fatalf("line %#x has %d M/E owners", line, owners)
		}
		if owners == 1 && sharers > 0 {
			t.Fatalf("line %#x has an owner and %d sharers", line, sharers)
		}
	}
}

// TestMESISWMRInvariant drives the full protocol with random access
// streams and validates SWMR and L1 ⊆ L2 inclusion after every access.
func TestMESISWMRInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := DefaultConfig()
		cfg.Sockets = 2
		cfg.CoresPerSocket = 4
		s := New(cfg)
		// A small pool of lines maximizes contention.
		pool := []mem.Addr{0x1000, 0x1040, 0x2000, 0x8000, 0x8040}
		var lines []uint64
		for _, a := range pool {
			lines = append(lines, s.l1[0].LineAddr(a))
		}
		for i := 0; i < 400; i++ {
			core := rng.Intn(s.cores)
			addr := pool[rng.Intn(len(pool))]
			write := rng.Intn(3) == 0
			s.Access(core, addr, write)
			if err := s.CheckInclusion(); err != nil {
				t.Log(err)
				return false
			}
			for _, line := range lines {
				owners, sharers := 0, 0
				for c := 0; c < s.cores; c++ {
					st := s.l1[c].Peek(line)
					if st == Invalid {
						st = s.l2[c].Peek(line)
					}
					switch st {
					case Modified, Exclusive:
						owners++
					case Shared:
						sharers++
					}
				}
				if owners > 1 || (owners == 1 && sharers > 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMESISWMRWithEvictions repeats the invariant check with tiny caches
// so evictions and writebacks interleave with the protocol; inclusion
// is checked after every access.
func TestMESISWMRWithEvictions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.L1Size = 256 // 4 lines
	cfg.L1Ways = 2
	cfg.L2Size = 512
	cfg.L2Ways = 2
	s := New(cfg)
	rng := sim.NewRNG(77)
	var pool []mem.Addr
	for i := 0; i < 32; i++ {
		pool = append(pool, mem.Addr(i*64))
	}
	var lines []uint64
	for _, a := range pool {
		lines = append(lines, s.l1[0].LineAddr(a))
	}
	for i := 0; i < 3000; i++ {
		s.Access(rng.Intn(4), pool[rng.Intn(len(pool))], rng.Intn(2) == 0)
		if err := s.CheckInclusion(); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	checkSWMR(t, s, lines)
	if s.Stats.WritebacksDir == 0 {
		t.Fatal("tiny caches should have produced writebacks")
	}
}

// TestDeactivatedMixedTraffic documents the semantics: private lines
// have no cross-core invariant because the language guarantees a single
// accessor; the protocol must still never corrupt default lines, and
// every core's private levels stay inclusive after every access.
func TestDeactivatedMixedTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.Deactivation = true
	s := New(cfg)
	s.Classify(0x100000, 1<<16, ClassPrivate, -1)
	rng := sim.NewRNG(5)
	sharedPool := []mem.Addr{0x1000, 0x1040, 0x2000}
	for i := 0; i < 2000; i++ {
		core := rng.Intn(4)
		if rng.Intn(2) == 0 {
			// Private traffic: each core in its own sub-range.
			s.Access(core, 0x100000+mem.Addr(core*4096+rng.Intn(16)*64), true)
		} else {
			s.Access(core, sharedPool[rng.Intn(3)], rng.Intn(3) == 0)
		}
		if err := s.CheckInclusion(); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	var lines []uint64
	for _, a := range sharedPool {
		lines = append(lines, s.l1[0].LineAddr(a))
	}
	checkSWMR(t, s, lines)
}
