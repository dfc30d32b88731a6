package core

import (
	"fmt"
	"testing"
)

// TestDomainModeDigests pins the steal-domain-mode tables byte for byte
// at seed 42: the full-axis Fig 3 sweep, whose 256-1024 CPU points run
// in domain mode, and Fig 3 at 16 CPUs with 4 domains. The digest
// manifest trims the sweep to its small-N points, so without this test
// domain-mode tables would be pinned only by the heartbeat observables
// golden.
func TestDomainModeDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 8-1024 CPU sweep")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the plain test run covers it")
	}
	t.Parallel()
	cases := []struct {
		name string
		run  func(s *Stack) *Table
		want string
	}{
		{"fig3-sweep", func(s *Stack) *Table { return s.Fig3Sweep(20) }, "24d3b33a9dbb6184"},
		{"fig3 domains=4", func(s *Stack) *Table {
			cfg := DefaultFig3Config()
			cfg.Domains = 4
			return s.Fig3(cfg)
		}, "70f2a0b92de6972f"},
	}
	for _, c := range cases {
		s := NewStack(16)
		s.Seed = 42
		tab := c.run(s)
		if got := fmt.Sprintf("%016x", tab.Digest()); got != c.want {
			t.Errorf("%s: table digest %s, want %s\n%s", c.name, got, c.want, tab)
		}
	}
}
