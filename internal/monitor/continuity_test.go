package monitor

import (
	"reflect"
	"strings"
	"testing"

	"guardrails/internal/kernel"
	"guardrails/internal/telemetry"
)

// TestUpdateTelemetryContinuity is the regression gate for hot updates:
// counters must neither reset nor orphan across generations. Stats()
// carries the cumulative totals forward, Generation() increments
// monotonically, and the
// per-monitor telemetry lane (keyed by the guardrail name, not a
// versioned alias) keeps accumulating in the same histogram.
func TestUpdateTelemetryContinuity(t *testing.T) {
	rt, k, st := newRT()
	sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 1<<12)
	rt.SetTelemetry(sink)
	st.Save("ml_enabled", 1)
	st.Save("false_submit_rate", 0.9) // violates every evaluation

	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := ms[0]
	k.RunUntil(3500 * kernel.Millisecond)
	s1 := m1.Stats()
	if s1.Evals == 0 || s1.Violations == 0 {
		t.Fatalf("generation 1 saw no traffic: %+v", s1)
	}
	lane1 := sink.EvalHist("low-false-submit").Summary().Count

	// Generation 2: tightened threshold, same name.
	m2, err := updateSource(rt, strings.Replace(listing2, "0.05", "0.02", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Generation(); got != 2 {
		t.Errorf("generation after first update = %d, want 2", got)
	}
	k.RunUntil(7500 * kernel.Millisecond)

	s2 := m2.Stats()
	if s2.Evals <= s1.Evals {
		t.Errorf("cumulative evals did not carry: gen1=%d gen2 total=%d", s1.Evals, s2.Evals)
	}
	if s2.Violations < s1.Violations {
		t.Errorf("cumulative violations went backwards: gen1=%d gen2 total=%d", s1.Violations, s2.Violations)
	}

	// Generation 3: another update; the chain keeps accumulating.
	m3, err := updateSource(rt, listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Generation(); got != 3 {
		t.Errorf("generation after second update = %d, want 3", got)
	}
	k.RunUntil(10 * kernel.Second)
	if m3.Stats().Evals <= s2.Evals {
		t.Error("cumulative evals did not carry into generation 3")
	}

	// Telemetry lane continuity: the eval histogram under the plain
	// guardrail name accumulated across all three generations — never
	// reset, never split into an orphan lane.
	lane3 := sink.EvalHist("low-false-submit").Summary().Count
	if lane3 <= lane1 {
		t.Errorf("telemetry lane stalled across updates: before=%d after=%d", lane1, lane3)
	}
	if uint64(lane3) != m3.Stats().Evals {
		t.Errorf("telemetry lane count %d != cumulative evals %d (lane reset or orphaned)", lane3, m3.Stats().Evals)
	}
}

// TestTelemetrySinkSwapAndDetachMidRun: the kernel's per-site and the
// monitor's own histogram handles follow SetTelemetry. Sink a stops
// moving at the swap, sink b accounts for exactly the middle segment —
// continuously across a hot Update inside it — and nothing is recorded
// after the detach.
func TestTelemetrySinkSwapAndDetachMidRun(t *testing.T) {
	const src = `
guardrail low-false-submit {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.9) // violates every evaluation
	if _, err := rt.LoadSource(src, Options{}); err != nil {
		t.Fatal(err)
	}
	attach := func(s *telemetry.Sink) {
		k.SetTelemetry(s)
		rt.SetTelemetry(s)
		st.SetTelemetry(s)
	}
	fired := uint64(0)
	fire := func(n uint64) {
		for i := uint64(0); i < n; i++ {
			k.Fire("io_done", 1)
		}
		fired += n
	}
	// timed counts the fires in (from, to] the kernel takes wall time
	// on: the site's 1st, 65th, 129th, ... (kernel.dispatchSamplePeriod).
	timed := func(from, to uint64) (n uint64) {
		for f := from + 1; f <= to; f++ {
			if (f-1)%64 == 0 {
				n++
			}
		}
		return n
	}
	check := func(name string, s *telemetry.Sink, fires, timed uint64) {
		t.Helper()
		c := &s.Counters
		for _, row := range []struct {
			what      string
			got, want uint64
		}{
			{"hook_fires_total", c.HookFires.Value(), fires},
			{"evals_total", c.Evals.Value(), fires},
			{"violations_total", c.Violations.Value(), fires},
			{"featurestore_loads_total", c.StoreLoads.Value(), fires},
			{"eval_vm_steps count", s.EvalHist("low-false-submit").Summary().Count, fires},
			{"hook_dispatch_ns count", s.HookHist("io_done").Summary().Count, timed},
		} {
			if row.got != row.want {
				t.Errorf("sink %s: %s = %d, want %d", name, row.what, row.got, row.want)
			}
		}
	}

	a := telemetry.New(nil, 1<<10)
	b := telemetry.New(nil, 1<<10)
	attach(a)
	fire(100)
	aAtSwap := a.Snapshot()

	attach(b)
	fire(70)
	m2, err := updateSource(rt, strings.Replace(src, "0.05", "0.02", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fire(80)
	bAtDetach := b.Snapshot()

	attach(nil)
	fire(50)

	check("a", a, 100, timed(0, 100))
	check("b", b, 150, timed(100, 250))
	if got := a.Snapshot(); !reflect.DeepEqual(got, aAtSwap) {
		t.Errorf("sink a moved after the swap:\nat swap %+v\nnow     %+v", aAtSwap, got)
	}
	if got := b.Snapshot(); !reflect.DeepEqual(got, bAtDetach) {
		t.Errorf("sink b moved after the detach:\nat detach %+v\nnow       %+v", bAtDetach, got)
	}
	if got := m2.Stats().Evals; got != fired {
		t.Errorf("monitor evaluated %d times over %d fires", got, fired)
	}
}
