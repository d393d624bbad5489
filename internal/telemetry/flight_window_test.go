package telemetry

import (
	"slices"
	"testing"
)

// fillFlight records n instant events at times t = 0, step, 2*step, ...
func fillFlight(f *Flight, n int, step Time) {
	for i := 0; i < n; i++ {
		f.Record(Event{At: Time(i) * step, Kind: KindHookFire, Subject: "s"})
	}
}

func TestEventsSinceNoWrap(t *testing.T) {
	f := NewFlight(16)
	fillFlight(f, 10, 10) // times 0..90, all retained
	got, truncated := f.EventsSince(50)
	if truncated {
		t.Error("window fully retained, but truncated reported")
	}
	if len(got) != 5 {
		t.Fatalf("EventsSince(50) = %d events, want 5", len(got))
	}
	if got[0].At != 50 || got[len(got)-1].At != 90 {
		t.Errorf("window spans [%d, %d], want [50, 90]", got[0].At, got[len(got)-1].At)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
}

func TestEventsSinceEmptyWindow(t *testing.T) {
	f := NewFlight(8)
	fillFlight(f, 4, 10) // times 0..30
	got, truncated := f.EventsSince(100)
	if len(got) != 0 || truncated {
		t.Errorf("future window: got %d events, truncated=%v; want 0, false", len(got), truncated)
	}
	// Empty recorder.
	empty := NewFlight(8)
	if got, truncated := empty.EventsSince(0); len(got) != 0 || truncated {
		t.Errorf("empty recorder: got %d events, truncated=%v", len(got), truncated)
	}
}

// TestEventsSinceWrapInsideWindow is the satellite's target case: the
// ring has wrapped and the window boundary falls inside the retained
// suffix. The query must return exactly the retained events at or after
// the boundary, and must not report truncation (the dropped events are
// all older than the window).
func TestEventsSinceWrapInsideWindow(t *testing.T) {
	f := NewFlight(8)
	fillFlight(f, 20, 10) // times 0..190; ring retains 120..190
	if f.Len() != 8 || f.Total() != 20 {
		t.Fatalf("ring state: len=%d total=%d", f.Len(), f.Total())
	}
	got, truncated := f.EventsSince(150)
	if truncated {
		t.Error("boundary inside retained suffix, but truncated reported")
	}
	want := []Time{150, 160, 170, 180, 190}
	if len(got) != len(want) {
		t.Fatalf("EventsSince(150) = %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.At != want[i] {
			t.Errorf("event %d at %d, want %d", i, e.At, want[i])
		}
	}
}

// TestEventsSinceWindowFellOffRing: the window starts before the oldest
// retained event after a wraparound — the result is the whole retained
// ring and the truncation flag is set, so a gate can tell "quiet
// window" from "window fell off the ring".
func TestEventsSinceWindowFellOffRing(t *testing.T) {
	f := NewFlight(8)
	fillFlight(f, 20, 10) // retains times 120..190; 0..110 overwritten
	got, truncated := f.EventsSince(50)
	if !truncated {
		t.Error("window reaches overwritten history, truncation not reported")
	}
	if len(got) != 8 {
		t.Fatalf("EventsSince(50) = %d events, want all 8 retained", len(got))
	}
	if got[0].At != 120 {
		t.Errorf("oldest returned event at %d, want 120", got[0].At)
	}
}

// TestEventsSinceBoundaryExactlyAtOldest: the window starts exactly at
// the oldest retained event's time. Everything retained is in-window,
// but events with the same or earlier times were dropped, so the
// conservative truncation flag is set.
func TestEventsSinceBoundaryExactlyAtOldest(t *testing.T) {
	f := NewFlight(8)
	fillFlight(f, 20, 10) // retains 120..190
	got, truncated := f.EventsSince(120)
	if len(got) != 8 {
		t.Fatalf("EventsSince(120) = %d events, want 8", len(got))
	}
	if !truncated {
		t.Error("boundary at oldest retained event after wrap: want truncated=true")
	}
	// Before any wraparound the same boundary is exact, not truncated.
	g := NewFlight(32)
	fillFlight(g, 20, 10)
	if _, trunc := g.EventsSince(0); trunc {
		t.Error("no wraparound: truncated must be false even at the full window")
	}
}

// TestEventsSinceOutOfOrderTimes: record order is not time order — a
// storage device records a GC pause at the future time it starts — so
// the window must hold exactly the retained events with At >= t, in
// record order, and nothing from before it.
func TestEventsSinceOutOfOrderTimes(t *testing.T) {
	f := NewFlight(8)
	for _, e := range []Event{
		{At: 1, Kind: KindEval, Subject: "m"},
		{At: 100, Dur: 50, Kind: KindGCPause, Subject: "ssd0"},
		{At: 2, Kind: KindEval, Subject: "m"},
		{At: 3, Kind: KindEval, Subject: "m"},
		{At: 4, Kind: KindEval, Subject: "m"},
		{At: 5, Kind: KindEval, Subject: "m"},
	} {
		f.Record(e)
	}
	got, truncated := f.EventsSince(3)
	if truncated {
		t.Error("nothing was overwritten, but truncated reported")
	}
	var at []Time
	var seq []uint64
	for _, e := range got {
		at, seq = append(at, e.At), append(seq, e.Seq)
	}
	if want := []Time{100, 3, 4, 5}; !slices.Equal(at, want) {
		t.Errorf("EventsSince(3) times = %v, want %v", at, want)
	}
	if want := []uint64{2, 4, 5, 6}; !slices.Equal(seq, want) {
		t.Errorf("EventsSince(3) seqs = %v, want %v (record order)", seq, want)
	}
}

func TestWindowedCounterDeltas(t *testing.T) {
	s := New(nil, 16)
	s.Eval(0, "m", 5, true)
	before := s.Snapshot()
	s.Eval(1, "m", 5, false) // eval + violation
	s.Promotion(2, 2)
	s.Rollback(3, 1, "gate")
	after := s.Snapshot()
	for name, want := range map[string]uint64{
		"evals_total":              1,
		"violations_total":         1,
		"rollout_promotions_total": 1,
		"rollout_rollbacks_total":  1,
	} {
		if got := after.Counters[name] - before.Counters[name]; got != want {
			t.Errorf("windowed delta %s = %d, want %d", name, got, want)
		}
	}
}
