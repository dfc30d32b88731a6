package coherence_test

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/workloads"
)

// TestPBBSTracesKeepInclusion runs every Fig. 7 PBBS trace on the
// two-socket platform and checks at the end that each core's L1 is a
// subset of its L2, state for state: fillPrivate relies on it to treat
// an L1 victim as still held privately.
func TestPBBSTracesKeepInclusion(t *testing.T) {
	for _, b := range workloads.PBBS() {
		for _, cores := range []int{8, 24} {
			for _, deact := range []bool{false, true} {
				b, cores, deact := b, cores, deact
				t.Run(fmt.Sprintf("%s/%d/deact=%v", b.Name, cores, deact), func(t *testing.T) {
					t.Parallel()
					cfg := coherence.DefaultConfig()
					cfg.Sockets = 2
					cfg.CoresPerSocket = cores / 2
					cfg.Deactivation = deact
					s := coherence.New(cfg)
					b.Run(s, b.Scale, 42)
					if err := s.CheckInclusion(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
