package serve

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestTerminalStatesStoreExactSizes drives a job to each terminal state
// and checks that the retained result and event log carry no growth
// slack (cap == len) while holding the same bytes and events as before:
// the result is the CLI rendering, and the log is every earlier event
// followed by the terminal one.
func TestTerminalStatesStoreExactSizes(t *testing.T) {
	cfg := core.DefaultRunConfig("virtine")
	want := directRun(t, cfg)
	tables, _, err := (&core.Runner{}).Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := func() time.Time { return time.Unix(1, 0) }
	for _, end := range []State{StateDone, StateFailed, StateCancelled} {
		j := newJob(cfg, now)
		j.setRunning(now())
		for i := 0; i < 3; i++ {
			j.cellEvent(core.CellEvent{Driver: "virtine", Cell: i, Of: 3}, now())
		}
		before := append([]Event(nil), j.events...)
		switch end {
		case StateDone:
			j.setDone(tables, cache.SourceComputed, now())
		case StateFailed:
			j.setFailed(CodeInternal, "boom", now())
		case StateCancelled:
			j.setCancelled(now())
		}
		if cap(j.events) != len(j.events) {
			t.Errorf("%s: events len %d cap %d, want exact", end, len(j.events), cap(j.events))
		}
		if n := len(before); len(j.events) != n+1 || !reflect.DeepEqual(j.events[:n], before) || j.events[n].Type != string(end) {
			t.Errorf("%s: event log changed: %+v", end, j.events)
		}
		if end != StateDone {
			continue
		}
		if cap(j.result) != len(j.result) {
			t.Errorf("result len %d cap %d, want exact", len(j.result), cap(j.result))
		}
		if !bytes.Equal(j.result, want) {
			t.Error("result differs from the CLI rendering")
		}
	}
}
