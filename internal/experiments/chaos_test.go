package experiments

import (
	"strings"
	"testing"

	"guardrails/internal/faults"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
)

// TestChaosRun is the acceptance gate for the fault-injection
// subsystem: under the standard chaos plan, no monitor fault crashes
// the run, every injected fault is visible in the report log or the
// dead-letter queue, the quarantined monitor recovers after its
// cooldown, and the Figure 2 comparison still goes the guarded
// system's way.
func TestChaosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is seconds-long")
	}
	r, err := RunChaos(DefaultChaosConfig(42))
	if err != nil {
		t.Fatal(err)
	}

	// Every injected fault left a trace.
	if r.Missed != 0 {
		t.Errorf("missed faults = %d; injected %v, surfaced %v", r.Missed, r.Injected, r.Surfaced)
	}
	for _, k := range []faults.Kind{faults.EvalTrap, faults.LoadNaN, faults.ActionFail,
		faults.ReplicaFail, faults.ReplicaHeal} {
		if r.Injected[k] == 0 {
			t.Errorf("plan delivered no %v faults — schedule broken", k)
		}
	}

	// The breaker tripped on the trap burst and came back after its
	// 3s cooldown.
	lfs := r.Monitors["low-false-submit"]
	if lfs.Quarantines != 1 || lfs.Rearms != 1 {
		t.Errorf("breaker episode: quarantines=%d rearms=%d, want 1/1", lfs.Quarantines, lfs.Rearms)
	}
	if r.QuarantinedAt == 0 || r.RearmedAt == 0 {
		t.Fatalf("episode timestamps missing: quarantined=%v rearmed=%v", r.QuarantinedAt, r.RearmedAt)
	}
	if r.RecoveryLatency != 3*kernel.Second {
		t.Errorf("recovery latency = %v, want the 3s cooldown", r.RecoveryLatency)
	}

	// The retrain outage exhausted retries into the dead-letter queue.
	if r.DeadLetters == 0 {
		t.Error("retrain outage produced no dead letters")
	}
	fsr := r.Monitors["fs-retrain"]
	if fsr.Retries == 0 || fsr.DeadLetters == 0 {
		t.Errorf("retry path unexercised: %+v", fsr)
	}
	if fsr.Quarantines != 0 {
		t.Error("retrain guardrail quarantined despite its breaker being off")
	}

	// No fault escalated into a panic or killed a monitor for good.
	if r.HookPanics != 0 {
		t.Errorf("hook panics = %d", r.HookPanics)
	}
	for name, s := range r.Monitors {
		if s.Evals == 0 {
			t.Errorf("monitor %s never evaluated", name)
		}
	}

	// The Figure 2 shape survives fail-closed chaos: the guardrail
	// fired and the guarded system still beats the unguarded one
	// post-shift.
	if r.Fig2.GuardrailFiredAt == 0 {
		t.Error("guardrail never fired")
	}
	if r.Fig2.GuardedTailUS >= r.Fig2.UnguardedTailUS {
		t.Errorf("guarded tail %.1fus should beat unguarded %.1fus",
			r.Fig2.GuardedTailUS, r.Fig2.UnguardedTailUS)
	}

	out := r.Render()
	for _, want := range []string{"fault audit", "missed faults: 0", "recovery latency", "dead letters"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestChaosIsDeterministic re-runs the experiment with the same seeds
// and expects an identical fault schedule and audit.
func TestChaosIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is seconds-long")
	}
	a, err := RunChaos(DefaultChaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(DefaultChaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []faults.Kind{faults.EvalTrap, faults.LoadNaN, faults.ActionFail} {
		if a.Injected[k] != b.Injected[k] {
			t.Errorf("%v injections differ: %d vs %d", k, a.Injected[k], b.Injected[k])
		}
	}
	if a.QuarantinedAt != b.QuarantinedAt || a.RearmedAt != b.RearmedAt {
		t.Errorf("breaker episodes differ: (%v,%v) vs (%v,%v)",
			a.QuarantinedAt, a.RearmedAt, b.QuarantinedAt, b.RearmedAt)
	}
	if a.DeadLetters != b.DeadLetters {
		t.Errorf("dead letters differ: %d vs %d", a.DeadLetters, b.DeadLetters)
	}
	var sa, sb monitor.Stats
	sa, sb = a.Monitors["low-false-submit"], b.Monitors["low-false-submit"]
	if sa.Evals != sb.Evals || sa.Traps != sb.Traps || sa.Violations != sb.Violations {
		t.Errorf("monitor stats differ: %+v vs %+v", sa, sb)
	}
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Errorf("rendered reports differ:\n%s\nvs\n%s", ra, rb)
	}
}
