package coherence

import "fmt"

// CheckInclusion returns an error naming the first valid L1 way that
// its core's L2 does not hold in the same state, or nil when every
// core's private levels are inclusive.
func (s *System) CheckInclusion() error {
	for c := 0; c < s.cores; c++ {
		for _, l := range s.l1[c].lines {
			if st := l.state(); st != Invalid {
				if st2 := s.l2[c].Peek(l.tag); st2 != st {
					return fmt.Errorf("core %d: line %#x is %v in L1 but %v in L2", c, l.tag, st, st2)
				}
			}
		}
	}
	return nil
}
