package heartbeat

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestDequeCheckInvariantsTable corrupts a deque in each of the ways
// the checker must catch (plus healthy controls): the failure cases are
// exactly the states a broken steal/pop path would leave behind.
func TestDequeCheckInvariantsTable(t *testing.T) {
	t.Parallel()
	frame := func() *Frame { return &Frame{Lo: 0, Hi: 10, Grain: 1} }
	cases := []struct {
		name    string
		mutate  func(d *Deque)
		wantErr string // substring of the invariant error; "" = healthy
	}{
		{
			name:   "empty-is-healthy",
			mutate: func(d *Deque) {},
		},
		{
			name: "push-pop-steal-is-healthy",
			mutate: func(d *Deque) {
				d.PushBottom(frame())
				d.PushBottom(frame())
				d.PushBottom(frame())
				d.PopBottom()
				d.StealTop()
			},
		},
		{
			name:    "top-past-end",
			mutate:  func(d *Deque) { d.PushBottom(frame()); d.top = 2 },
			wantErr: "outside",
		},
		{
			name:    "negative-top",
			mutate:  func(d *Deque) { d.top = -1 },
			wantErr: "outside",
		},
		{
			name: "nil-live-slot",
			mutate: func(d *Deque) {
				d.PushBottom(frame())
				d.PushBottom(frame())
				d.items[1] = nil // a pop that forgot to shrink
			},
			wantErr: "nil frame",
		},
		{
			name: "leaked-stolen-slot",
			mutate: func(d *Deque) {
				d.PushBottom(frame())
				d.PushBottom(frame())
				d.items = append([]*Frame(nil), d.items...)
				d.top = 1 // steal that forgot to release items[0]
				d.Steals++
			},
			wantErr: "still holds",
		},
		{
			name: "counter-drift",
			mutate: func(d *Deque) {
				d.PushBottom(frame())
				d.Pops++ // a pop was counted that never happened
			},
			wantErr: "counters",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d := NewDeque()
			tc.mutate(d)
			err := d.CheckInvariants()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("healthy deque flagged: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckInvariants() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRuntimeCheckInvariantsTable drives the cross-worker checker
// through healthy and corrupted runtime states: double frame ownership,
// negative ranges, and item-conservation drift.
func TestRuntimeCheckInvariantsTable(t *testing.T) {
	t.Parallel()
	build := func() *Runtime {
		eng := sim.NewEngine()
		m := machine.New(eng, model.Default(), machine.Topology{Sockets: 1, CoresPerSocket: 2})
		return New(m, DefaultConfig())
	}
	cases := []struct {
		name    string
		mutate  func(rt *Runtime)
		wantErr string
	}{
		{
			name: "distributed-frames-healthy",
			mutate: func(rt *Runtime) {
				rt.running = true
				rt.remaining = 30
				rt.workers[0].deque.PushBottom(&Frame{Lo: 0, Hi: 20, Grain: 1})
				rt.queued = 1
				rt.workers[1].cur = &Frame{Lo: 20, Hi: 30, Grain: 1}
			},
		},
		{
			name: "queued-count-drift",
			mutate: func(rt *Runtime) {
				rt.workers[0].deque.PushBottom(&Frame{Lo: 0, Hi: 20, Grain: 1})
				// a push that skipped the counter: idle batches would
				// advance as if nothing could be stolen
			},
			wantErr: "counted queued",
		},
		{
			name: "double-owned-frame",
			mutate: func(rt *Runtime) {
				f := &Frame{Lo: 0, Hi: 10, Grain: 1}
				rt.workers[0].deque.PushBottom(f)
				rt.workers[1].cur = f
			},
			wantErr: "owned by workers",
		},
		{
			name: "negative-range",
			mutate: func(rt *Runtime) {
				rt.workers[0].cur = &Frame{Lo: 10, Hi: 3, Grain: 1}
			},
			wantErr: "negative range",
		},
		{
			name: "lost-items",
			mutate: func(rt *Runtime) {
				rt.running = true
				rt.remaining = 50 // but only 20 items are held by frames
				rt.workers[0].deque.PushBottom(&Frame{Lo: 0, Hi: 20, Grain: 1})
				rt.queued = 1
			},
			wantErr: "remain outstanding",
		},
		{
			name: "corrupt-worker-deque-surfaces",
			mutate: func(rt *Runtime) {
				rt.workers[1].deque.top = 7
			},
			wantErr: "worker 1",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rt := build()
			tc.mutate(rt)
			err := rt.CheckInvariants()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("healthy runtime flagged: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckInvariants() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestFrameSplitAboveTable pins SplitAbove across floors: no floor,
// floor inside the range, floor leaving too little room (the failure
// path returning nil), and floor past the end.
func TestFrameSplitAboveTable(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name      string
		frame     Frame
		floor     int64
		wantSplit bool
		wantLo    int64 // upper.Lo when split
	}{
		{name: "floor-below-lo", frame: Frame{Lo: 10, Hi: 110, Grain: 4}, floor: 0, wantSplit: true, wantLo: 60},
		{name: "floor-inside", frame: Frame{Lo: 0, Hi: 100, Grain: 4}, floor: 60, wantSplit: true, wantLo: 80},
		{name: "floor-too-high", frame: Frame{Lo: 0, Hi: 100, Grain: 30}, floor: 50, wantSplit: false},
		{name: "floor-past-end", frame: Frame{Lo: 0, Hi: 100, Grain: 4}, floor: 200, wantSplit: false},
		{name: "below-grain", frame: Frame{Lo: 0, Hi: 7, Grain: 4}, floor: 0, wantSplit: false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := tc.frame
			total := f.Remaining()
			u := f.SplitAbove(tc.floor)
			if (u != nil) != tc.wantSplit {
				t.Fatalf("SplitAbove(%d) = %v, wantSplit=%v", tc.floor, u, tc.wantSplit)
			}
			if u == nil {
				if f.Remaining() != total {
					t.Fatalf("failed split still shrank the frame: %+v", f)
				}
				return
			}
			if u.Lo != tc.wantLo || f.Hi != u.Lo {
				t.Fatalf("split ranges wrong: f=%+v u=%+v, want upper.Lo=%d", f, u, tc.wantLo)
			}
			if f.Remaining()+u.Remaining() != total {
				t.Fatalf("split lost items: f=%+v u=%+v total=%d", f, u, total)
			}
		})
	}
}
