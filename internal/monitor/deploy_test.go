package monitor

import (
	"errors"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/telemetry"
)

const conflictingPair = `
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail ml-on {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(lat_p99) <= 5e6 },
    action: { SAVE(ml_enabled, 1) }
}`

const cleanPair = `
guardrail watch-a {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { REPORT(LOAD(err_rate)) }
}
guardrail watch-b {
    trigger: { FUNCTION(page_alloc) },
    rule: { LOAD(lat_p99) <= 5e6 },
    action: { REPORT(LOAD(lat_p99)) }
}`

func compileAll(t *testing.T, src string) []*compile.Compiled {
	t.Helper()
	cs, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestDuplicateLoadIsCoded: loading the same spec twice into one
// runtime fails with the GI007-coded duplicate-deployment error, and
// the failed second load does not disturb the first.
func TestDuplicateLoadIsCoded(t *testing.T) {
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.01)
	if _, err := rt.LoadSource(listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := rt.LoadSource(listing2, Options{})
	var dup *DuplicateLoadError
	if !errors.As(err, &dup) {
		t.Fatalf("second load returned %v, want *DuplicateLoadError", err)
	}
	if dup.Name != "low-false-submit" {
		t.Errorf("DuplicateLoadError.Name = %q", dup.Name)
	}
	if !strings.Contains(err.Error(), "GI007") {
		t.Errorf("error %q missing the GI007 code", err)
	}
	if m := rt.Monitor("low-false-submit"); m == nil {
		t.Fatal("first load was disturbed by the failed duplicate")
	}
	k.RunUntil(1500 * kernel.Millisecond)
	if got := rt.Monitor("low-false-submit").Stats().Evals; got == 0 {
		t.Error("original monitor stopped evaluating after duplicate load attempt")
	}
}

// TestLoadDeploymentEnforceRefusesConflicts: a conflicting deployment
// is refused atomically — nothing loaded, the error carries the report.
func TestLoadDeploymentEnforceRefusesConflicts(t *testing.T) {
	rt, _, _ := newRT()
	res, err := rt.LoadDeployment(compileAll(t, conflictingPair), DeployConfig{})
	var derr *DeployError
	if !errors.As(err, &derr) {
		t.Fatalf("got %v, want *DeployError", err)
	}
	if !strings.Contains(err.Error(), "GI001") {
		t.Errorf("refusal does not cite GI001: %s", err)
	}
	if len(res.Monitors) != 0 || len(rt.Monitors()) != 0 {
		t.Error("refused deployment still loaded monitors")
	}
	if derr.Report == nil || derr.Report.Clean() {
		t.Error("refusal must carry the dirty report")
	}
}

// TestLoadDeploymentAdmitsFirstFireViolation: report-low violates while
// x <= 1, and only raise-x writes x (to 10). x reads 0 until raise-x
// fires, so report-low is live, and LoadDeployment admits the pair; the
// first fire, with x unset, counts report-low's violation.
func TestLoadDeploymentAdmitsFirstFireViolation(t *testing.T) {
	rt, k, _ := newRT()
	res, err := rt.LoadDeployment(compileAll(t, `
guardrail report-low {
    trigger: { FUNCTION(s) },
    rule: { LOAD(x) > 1 },
    action: { REPORT(1) }
}
guardrail raise-x {
    trigger: { FUNCTION(s) },
    rule: { LOAD(x) > 1 },
    action: { SAVE(x, 10) }
}`), DeployConfig{})
	if err != nil {
		t.Fatalf("deployment refused: %v", err)
	}
	k.Fire("s")
	if got := res.Monitors[0].Stats().Violations; got != 1 {
		t.Errorf("report-low counted %d violations on the first fire, want 1", got)
	}
}

// TestLoadDeploymentEnforceAdmitsClean: a clean deployment loads every
// monitor and records the kernel-side admission.
func TestLoadDeploymentEnforceAdmitsClean(t *testing.T) {
	rt, k, _ := newRT()
	sink := telemetry.New(nil, 16)
	k.SetTelemetry(sink)
	res, err := rt.LoadDeployment(compileAll(t, cleanPair), DeployConfig{})
	if err != nil {
		t.Fatalf("clean deployment refused: %v", err)
	}
	if len(res.Monitors) != 2 {
		t.Fatalf("loaded %d monitors, want 2", len(res.Monitors))
	}
	if got := sink.Counters.DeployAdmitted.Value(); got != 1 {
		t.Errorf("deployment_admitted_total = %d, want 1", got)
	}
}
