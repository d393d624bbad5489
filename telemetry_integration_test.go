package guardrails

// End-to-end telemetry tests: the observability plane attached to a
// whole System must (a) reconcile exactly with the monitors' own
// accounting and (b) export a byte-identical Chrome trace for a seeded
// deterministic run. Both named TestTelemetry… so CI's
// `go test -run Telemetry -race` covers them alongside the unit tests
// in internal/telemetry.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"guardrails/internal/monitor"
	"guardrails/internal/telemetry"
)

// telemetrySpec exercises evaluation, violation, REPORT, and a
// DEPRIORITIZE whose task group no runtime binds — every episode also
// walks the retry ladder into the dead-letter queue.
const telemetrySpec = `
guardrail telemetry-watch {
    trigger: {
        TIMER(0, 1e8) // every 100ms
    },
    rule: {
        LOAD(sig) <= 1.0
    },
    action: {
        REPORT(LOAD(sig));
        DEPRIORITIZE(ghost_group)
    }
}`

// runTelemetrySystem drives one deterministic guarded run and returns
// the system and its sink. sig ramps above the threshold mid-run, so
// the monitor sees passes, violations, fired actions, failed
// DEPRIORITIZE dispatches, retries, and dead letters.
func runTelemetrySystem(t *testing.T, eventCap int) (*System, *Telemetry, []*Monitor) {
	t.Helper()
	sys := NewSystem()
	sink := sys.AttachTelemetry(eventCap)
	mons, err := sys.LoadGuardrails(telemetrySpec, Options{RetryMax: 1})
	if err != nil {
		t.Fatalf("loading guardrail: %v", err)
	}
	sys.Kernel.Every(0, 50*Millisecond, 3*Second, func(now Time) {
		v := 0.5
		if now >= Second && now < 2*Second {
			v = 2.5 // violation window
		}
		sys.Store.Save("sig", v)
	})
	sys.Kernel.RunUntil(3 * Second)
	return sys, sink, mons
}

// TestTelemetryCountersReconcileWithMonitorStats is the acceptance
// check: with telemetry enabled, the plane's counters must equal the
// sum of the monitors' own Stats — same increments, same code points,
// no sampling.
func TestTelemetryCountersReconcileWithMonitorStats(t *testing.T) {
	_, sink, mons := runTelemetrySystem(t, 4096)
	var want monitor.Stats
	for _, m := range mons {
		st := m.Stats()
		want.Evals += st.Evals
		want.Violations += st.Violations
		want.ActionsFired += st.ActionsFired
		want.DeadLetters += st.DeadLetters
		want.Retries += st.Retries
	}
	if want.Evals == 0 || want.Violations == 0 || want.ActionsFired == 0 || want.DeadLetters == 0 {
		t.Fatalf("run exercised nothing: stats = %+v", want)
	}
	snap := sink.Snapshot()
	for name, wantV := range map[string]uint64{
		"evals_total":          want.Evals,
		"violations_total":     want.Violations,
		"actions_fired_total":  want.ActionsFired,
		"dead_letters_total":   want.DeadLetters,
		"action_retries_total": want.Retries,
	} {
		if got := snap.Counters[name]; got != wantV {
			t.Errorf("counter %s = %d, want %d (monitor stats)", name, got, wantV)
		}
	}
	if snap.EventsTotal == 0 {
		t.Error("flight recorder captured no events")
	}
	if sum, ok := snap.EvalVMSteps["telemetry-watch"]; !ok || sum.Count != want.Evals {
		t.Errorf("eval histogram count = %+v, want %d observations", sum, want.Evals)
	}
}

// TestTelemetryStatsCarryTriggerTime: a violation reported through
// REPORT is stamped with the simulated time of the triggering hook, and
// the monitor records that trigger in Stats.LastTriggerAt.
func TestTelemetryStatsCarryTriggerTime(t *testing.T) {
	sys, _, mons := runTelemetrySystem(t, 256)
	st := mons[0].Stats()
	if st.LastTriggerAt == 0 {
		t.Error("Stats.LastTriggerAt was never set")
	}
	var reports int
	for _, v := range sys.Runtime.Log.Recent(1024) {
		if v.Note != "" || len(v.Values) == 0 {
			continue
		}
		reports++
		// TIMER(0, 1e8) triggers land exactly on 100ms boundaries; a
		// report stamped off-boundary would be carrying dispatch time.
		if v.Time%(100*Millisecond) != 0 {
			t.Errorf("report at %v is not on a trigger boundary", v.Time)
		}
	}
	if reports == 0 {
		t.Fatal("no REPORT violations logged")
	}
}

// TestTelemetryTraceGolden locks the Chrome trace_event export of a
// seeded deterministic run against testdata/telemetry_trace.golden.json.
// Regenerate with UPDATE_TELEMETRY_GOLDEN=1 go test -run TelemetryTraceGolden.
func TestTelemetryTraceGolden(t *testing.T) {
	run := func() []byte {
		sys := NewSystem()
		sink := sys.AttachTelemetry(64)
		if _, err := sys.LoadGuardrails(telemetrySpec, Options{RetryMax: 1}); err != nil {
			t.Fatalf("loading guardrail: %v", err)
		}
		sys.Kernel.Every(0, 50*Millisecond, Second, func(now Time) {
			v := 0.5
			if now >= 500*Millisecond {
				v = 2.5
			}
			sys.Store.Save("sig", v)
		})
		sys.Kernel.RunUntil(Second)
		var buf bytes.Buffer
		if err := sink.WriteTrace(&buf); err != nil {
			t.Fatalf("writing trace: %v", err)
		}
		return buf.Bytes()
	}
	got := run()
	if again := run(); !bytes.Equal(got, again) {
		t.Fatal("trace export is not deterministic across identical runs")
	}

	// The export must be loadable trace_event JSON: an object with a
	// traceEvents array whose entries have the required fields.
	var parsed struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for i, e := range parsed.TraceEvents {
		if e.Name == "" || e.Phase == "" {
			t.Fatalf("trace event %d missing name/phase: %+v", i, e)
		}
	}

	golden := filepath.Join("testdata", "telemetry_trace.golden.json")
	if os.Getenv("UPDATE_TELEMETRY_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with UPDATE_TELEMETRY_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from golden file (regenerate with UPDATE_TELEMETRY_GOLDEN=1 if intended)\ngot %d bytes, want %d bytes", len(got), len(want))
	}
}

// TestTelemetryMetricsSnapshotRoundTrip: the JSON snapshot marshals
// (no NaN leakage from empty histograms) and survives a decode.
func TestTelemetryMetricsSnapshotRoundTrip(t *testing.T) {
	_, sink, _ := runTelemetrySystem(t, 128)
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot round-trip: %v", err)
	}
	if snap.Counters["evals_total"] == 0 {
		t.Error("round-tripped snapshot lost counters")
	}
}
