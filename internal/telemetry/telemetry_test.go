package telemetry

import (
	"io"
	"math"
	"strings"
	"testing"
)

func TestTelemetryCounterAddValue(t *testing.T) {
	var a, b Counter
	for i := 0; i < 100; i++ {
		a.Inc()
		b.Add(2)
	}
	if a.Value() != 100 || b.Value() != 200 {
		t.Fatalf("values = %d, %d", a.Value(), b.Value())
	}
}

// TestTelemetryNilSinkIsFree: every instrumentation entry point must be
// callable on a nil sink (the disabled plane) without panicking or
// allocating.
func TestTelemetryNilSinkIsFree(t *testing.T) {
	var s *Sink
	var c *Counter
	var h *Hist
	exercise := func() {
		s.HookFire(1, "site", 0)
		s.HookDispatched("site", 10)
		s.Eval(1, "mon", 5, false)
		s.ActionsFired(1, "mon")
		s.Action(1, "mon", "REPORT", 0, true)
		s.ActionRetry(1, "mon", "REPORT", 1)
		s.DeadLetter(1, "mon", "REPORT")
		s.Fault(1, "mon", "vm-trap")
		s.Transition(1, "mon", KindQuarantine, "test")
		s.GCPause(1, 2, "dev")
		s.Failover(1, "dev", false)
		s.IO("dev", 100, true)
		s.StoreLoad()
		s.StoreSave()
		s.FlightWindowTruncated()
		c.Add(1)
		h.Observe(1)
		_ = c.Value()
		_ = h.Summary()
		_ = s.Flight()
		_ = s.HookHist("site")
	}
	exercise()
	if n := testing.AllocsPerRun(1000, exercise); n != 0 {
		t.Errorf("nil sink instrumentation allocates %v times per run, want 0", n)
	}
	snap := s.Snapshot()
	if snap.EventsTotal != 0 || len(snap.Counters) != 0 {
		t.Errorf("nil sink snapshot = %+v", snap)
	}
}

// TestTelemetryEnabledHotPathAllocationFree: with a sink attached, the
// per-event hot paths (counter add, histogram observe, ring record)
// must still not allocate once the site's histogram exists.
func TestTelemetryEnabledHotPathAllocationFree(t *testing.T) {
	s := New(nil, 64)
	s.HookFire(1, "site", 0)
	s.HookDispatched("site", 10) // create the site histogram
	s.IO("dev", 100, false)
	if n := testing.AllocsPerRun(1000, func() {
		s.HookFire(2, "site", 1)
		s.HookDispatched("site", 20)
		s.Eval(2, "site", 7, true)
		s.IO("dev", 200, true)
		s.StoreLoad()
	}); n != 0 {
		t.Errorf("enabled hot path allocates %v times per run, want 0", n)
	}
}

func TestTelemetryFlightWraparoundOrdering(t *testing.T) {
	f := NewFlight(4)
	for i := 1; i <= 10; i++ {
		f.Record(Event{At: Time(i), Kind: KindHookFire, Subject: "s"})
	}
	if f.Total() != 10 || f.Len() != 4 {
		t.Fatalf("total=%d len=%d", f.Total(), f.Len())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	// The retained window is the contiguous suffix 7..10, oldest first.
	for i, e := range evs {
		want := uint64(7 + i)
		if e.Seq != want || e.At != Time(want) {
			t.Errorf("event %d: seq=%d at=%d, want %d", i, e.Seq, e.At, want)
		}
	}
}

func TestTelemetryPrometheusExposition(t *testing.T) {
	s := New(nil, 64)
	s.Eval(1, "low-false-submit", 8, false)
	s.HookFire(2, "io_complete", 42)
	s.HookDispatched("io_complete", 150)
	var a, b strings.Builder
	if err := s.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("exposition is not deterministic across writes")
	}
	for _, want := range []string{
		"# TYPE guardrails_evals_total counter\nguardrails_evals_total 1\n",
		"guardrails_violations_total 1\n",
		"guardrails_vm_steps_total 8\n",
		// Native cumulative histograms: one eval of 8 steps lands in
		// the [8,16) bin, so the cumulative series is 0 below it, 1 at
		// le="16", and 1 at +Inf with sum 8.
		"# TYPE guardrails_eval_vm_steps histogram\n",
		`guardrails_eval_vm_steps_bucket{monitor="low-false-submit",le="1"} 0`,
		`guardrails_eval_vm_steps_bucket{monitor="low-false-submit",le="16"} 1`,
		`guardrails_eval_vm_steps_bucket{monitor="low-false-submit",le="+Inf"} 1`,
		`guardrails_eval_vm_steps_sum{monitor="low-false-submit"} 8`,
		`guardrails_eval_vm_steps_count{monitor="low-false-submit"} 1`,
		"# TYPE guardrails_hook_dispatch_ns histogram\n",
		`guardrails_hook_dispatch_ns_bucket{site="io_complete",le="256"} 1`,
		`guardrails_hook_dispatch_ns_count{site="io_complete"} 1`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, a.String())
		}
	}
	if strings.Contains(a.String(), "quantile=") {
		t.Errorf("exposition still contains summary quantile series:\n%s", a.String())
	}
}

func TestTelemetryTransitionCounters(t *testing.T) {
	s := New(nil, 16)
	s.Transition(1, "m", KindQuarantine, "breaker")
	s.Transition(2, "m", KindRearm, "cooldown")
	s.Transition(3, "m", KindShadowEnter, "over budget")
	s.Transition(4, "m", KindShadowExit, "window reset")
	snap := s.Snapshot()
	for name, want := range map[string]uint64{
		"quarantines_total":       1,
		"rearms_total":            1,
		"shadow_demotions_total":  1,
		"shadow_promotions_total": 1,
	} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if got := s.Flight().Len(); got != 4 {
		t.Errorf("transition events = %d, want 4", got)
	}
}

func TestTelemetryKindStringsAndCategories(t *testing.T) {
	for k := Kind(0); k <= KindBreakglass; k++ { // KindBreakglass is the last kind
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if k.Category() == "other" {
			t.Errorf("kind %s has no category", k)
		}
	}
}

// TestTelemetryHistObserveNonFinite: an observation no histogram bucket
// can hold must not panic — the kernel observes on the fire path, so a
// panic would take the fire down with it — and must leave the summaries
// JSON-encodable.
func TestTelemetryHistObserveNonFinite(t *testing.T) {
	s := New(nil, 8)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 100} {
		s.HookDispatched("site", v)
	}
	sum := s.HookHist("site").Summary()
	if sum.Count != 4 {
		t.Errorf("count = %d, want 4 (the NaN is dropped)", sum.Count)
	}
	if want := (math.Ldexp(1, histMaxExp) + 100) / 4; sum.Mean != want {
		t.Errorf("mean = %v, want %v", sum.Mean, want)
	}
	if err := s.WriteJSON(io.Discard); err != nil {
		t.Errorf("snapshot does not encode: %v", err)
	}
	if err := s.WritePrometheus(io.Discard); err != nil {
		t.Error(err)
	}
}
