package guardrails

import (
	"errors"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
)

// The paper's failover/failback interference example in this repo's
// action taxonomy: both guardrails watch the io_uring submission hook;
// one disables the ML predictor and fails over, the other re-enables
// it and fails back. Each verifies alone; together their actions
// contradict on every shared dispatch.
const conflictingDeployment = `
guardrail ml-off-on-errors {
    trigger: { FUNCTION(io_uring_submit) },
    rule: { LOAD(io_err_rate) <= 0.01 },
    action: {
        SAVE(ml_enabled, 0)
        REPLACE(linnos, heuristic)
    }
}
guardrail ml-on-for-latency {
    trigger: { FUNCTION(io_uring_submit) },
    rule: { LOAD(io_lat_p99) <= 5e6 },
    action: {
        SAVE(ml_enabled, 1)
        REPLACE(heuristic, linnos)
    }
}`

// mustCompile compiles specification text or fails the test.
func mustCompile(t *testing.T, src string) []*compile.Compiled {
	t.Helper()
	cs, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestSystemRefusesConflictingDeployment: the system's runtime loads a
// deployment only after the interference analysis, so the conflicting
// pair is refused atomically (GI001 and GI002 cited) and nothing arms.
func TestSystemRefusesConflictingDeployment(t *testing.T) {
	sys := NewSystem()
	res, err := sys.Runtime.LoadDeployment(mustCompile(t, conflictingDeployment), monitor.DeployConfig{})
	var derr *monitor.DeployError
	if !errors.As(err, &derr) {
		t.Fatalf("got %v, want *DeployError", err)
	}
	for _, code := range []string{"GI001", "GI002"} {
		if !strings.Contains(err.Error(), code) {
			t.Errorf("refusal does not cite %s: %s", code, err)
		}
	}
	if len(res.Monitors) != 0 || len(sys.Runtime.Monitors()) != 0 {
		t.Error("refused deployment left monitors loaded")
	}
}

// TestSystemDuplicateLoad: loading the same spec twice into one System
// fails with the GI007-coded duplicate-deployment error and leaves the
// first load armed.
func TestSystemDuplicateLoad(t *testing.T) {
	const src = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`
	sys := NewSystem()
	sys.Store.Save("false_submit_rate", 0.01)
	if _, err := sys.LoadGuardrails(src, Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := sys.LoadGuardrails(src, Options{})
	var dup *monitor.DuplicateLoadError
	if !errors.As(err, &dup) {
		t.Fatalf("second load returned %v, want *DuplicateLoadError", err)
	}
	if !strings.Contains(err.Error(), "GI007") {
		t.Errorf("duplicate-load error %q missing GI007", err)
	}
	if sys.Runtime.Monitor("low-false-submit") == nil {
		t.Error("failed duplicate load unloaded the original monitor")
	}
}

// TestSystemBudgetRejectionTelemetry: an over-budget deployment is
// refused by the kernel admission test and the rejection is visible in
// the telemetry exposition.
func TestSystemBudgetRejectionTelemetry(t *testing.T) {
	sys := NewSystem()
	sink := sys.AttachTelemetry(64)
	const twoOnOneHook = `
guardrail watch-a {
    trigger: { FUNCTION(io_uring_submit) },
    rule: { LOAD(a) <= 1 },
    action: { REPORT(LOAD(a)) }
}
guardrail watch-b {
    trigger: { FUNCTION(io_uring_submit) },
    rule: { LOAD(b) <= 1 },
    action: { REPORT(LOAD(b)) }
}`
	loads := monitor.HookLoads(mustCompile(t, twoOnOneHook))
	err := sys.Kernel.AdmitDeployment(4, nil, loads)
	var aerr *kernel.AdmissionError
	if !errors.As(err, &aerr) {
		t.Fatalf("got %v, want *AdmissionError", err)
	}
	if got := sink.Counters.DeployRejected.Value(); got != 1 {
		t.Errorf("deployment_rejected_total = %d, want 1", got)
	}
	var buf strings.Builder
	if err := sink.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deployment_rejected_total 1") {
		t.Errorf("exposition missing rejection:\n%s", buf.String())
	}

	// Raising the budget admits the same deployment.
	if err := sys.Kernel.AdmitDeployment(64, nil, loads); err != nil {
		t.Fatalf("within-budget deployment refused: %v", err)
	}
}
