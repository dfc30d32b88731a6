package workloads

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/coherence"
)

// pbbsConfig is the Fig. 7 platform at the given core count, split over
// the given number of sockets.
func pbbsConfig(sockets, cores int, deact bool) coherence.Config {
	cfg := coherence.DefaultConfig()
	cfg.Sockets = sockets
	cfg.CoresPerSocket = cores / sockets
	cfg.Deactivation = deact
	return cfg
}

func runPBBS(b PBBSBench, cfg coherence.Config) coherence.Stats {
	s := coherence.New(cfg)
	b.Run(s, b.Scale, 42)
	return s.Stats
}

// TestRemoteLatencyPricing checks the identity the Fig. 7 sweep prices
// its latency axis with: a run at RemoteSocket 4r walks the same states
// as one at r, so per core Cycles[4r] = Cycles[r] + 3r·Crossings[r], and
// every other statistic, energy included, is identical.
func TestRemoteLatencyPricing(t *testing.T) {
	for _, b := range PBBS() {
		for _, cores := range []int{8, 24} {
			for _, deact := range []bool{false, true} {
				b, cores, deact := b, cores, deact
				t.Run(fmt.Sprintf("%s/%d/deact=%v", b.Name, cores, deact), func(t *testing.T) {
					t.Parallel()
					cfg := pbbsConfig(2, cores, deact)
					r := cfg.Costs.RemoteSocket
					lo := runPBBS(b, cfg)
					cfg.Costs.RemoteSocket = 4 * r
					hi := runPBBS(b, cfg)

					var crossings int64
					for c := range lo.Cycles {
						if want := lo.Cycles[c] + 3*r*lo.Crossings[c]; hi.Cycles[c] != want {
							t.Fatalf("core %d: Cycles at 4r = %d, want %d + 3·%d·%d = %d",
								c, hi.Cycles[c], lo.Cycles[c], r, lo.Crossings[c], want)
						}
						crossings += lo.Crossings[c]
					}
					if crossings == 0 {
						t.Fatal("a 2-socket run counted no crossings")
					}
					if got, want := hi.SumCycles(), lo.SumCyclesAt(r, 4*r); got != want {
						t.Fatalf("SumCycles at 4r = %d, SumCyclesAt prices %d", got, want)
					}
					if math.Float64bits(hi.EnergyPJ) != math.Float64bits(lo.EnergyPJ) ||
						math.Float64bits(hi.InterconnectPJ) != math.Float64bits(lo.InterconnectPJ) {
						t.Fatalf("energy moved with latency: %v/%v -> %v/%v",
							lo.EnergyPJ, lo.InterconnectPJ, hi.EnergyPJ, hi.InterconnectPJ)
					}
					lo.Cycles, hi.Cycles = nil, nil
					if !reflect.DeepEqual(lo, hi) {
						t.Fatalf("stats other than cycles differ:\n r: %+v\n4r: %+v", lo, hi)
					}
				})
			}
		}
	}
}

// TestOneSocketCountsNoCrossings: with one socket nothing crosses, so
// the latency axis leaves every cycle count where it is.
func TestOneSocketCountsNoCrossings(t *testing.T) {
	cfg := pbbsConfig(1, 8, false)
	r := cfg.Costs.RemoteSocket
	for _, b := range PBBS() {
		st := runPBBS(b, cfg)
		for c, x := range st.Crossings {
			if x != 0 {
				t.Fatalf("%s: core %d counted %d crossings on one socket", b.Name, c, x)
			}
		}
		if st.SumCyclesAt(r, 4*r) != st.SumCycles() {
			t.Fatalf("%s: repricing a 1-socket run moved its cycles", b.Name)
		}
	}
}

// BenchmarkPBBS replays every PBBS trace on the 48-core Fig. 7 platform
// with deactivation off and on: the coherence layer's share of fig7.
func BenchmarkPBBS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range PBBS() {
			for _, deact := range []bool{false, true} {
				runPBBS(bench, pbbsConfig(2, 48, deact))
			}
		}
	}
}
