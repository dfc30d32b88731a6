package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestTerminalStatesStoreExactSizes drives a job to each terminal state
// and checks that the retained event log carries no growth slack
// (cap == len) while holding the same events as before: every earlier
// event followed by the terminal one.
func TestTerminalStatesStoreExactSizes(t *testing.T) {
	cfg := core.DefaultRunConfig("virtine")
	now := func() time.Time { return time.Unix(1, 0) }
	for _, end := range []Event{
		{Type: string(StateDone), Tables: 1, Digest: "0123456789abcdef", Source: "computed"},
		{Type: string(StateFailed), Code: CodeInternal, Error: "boom"},
		cancelledEvent,
	} {
		j := newJob(cfg, now)
		j.setRunning(now())
		for i := 0; i < 3; i++ {
			j.cellEvent(core.CellEvent{Driver: "virtine", Cell: i, Of: 3}, now())
		}
		before := append([]Event(nil), j.events...)
		j.finish(end)
		if cap(j.events) != len(j.events) {
			t.Errorf("%s: events len %d cap %d, want exact", end.Type, len(j.events), cap(j.events))
		}
		if n := len(before); len(j.events) != n+1 || !reflect.DeepEqual(j.events[:n], before) || j.events[n] != end {
			t.Errorf("%s: event log changed: %+v", end.Type, j.events)
		}
	}
}
