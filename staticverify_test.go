package guardrails

// Integration tests for the static-verification plane: compiled
// guardrails arrive at the monitor runtime carrying the abstract
// interpreter's proof, the load split (verified image vs. unverified,
// counted as guarded) is observable in the Prometheus exposition, and the
// certified step bound is an admission test.

import (
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/vm"
)

const staticVerifySpec = `
guardrail static-verify-watch {
    trigger: { TIMER(0, 1e8) },
    rule: { LOAD(sig) <= 1.0 },
    action: { REPORT(LOAD(sig)) }
}`

// TestProvenLoadVisibleInPrometheus: loading a compiled (and therefore
// verifier-proven) guardrail must increment monitor_loads_proven_total,
// and force-loading an unproven copy of the same program must increment
// the guarded-load counter instead.
func TestProvenLoadVisibleInPrometheus(t *testing.T) {
	sys := NewSystem()
	sink := sys.AttachTelemetry(64)
	if _, err := sys.LoadGuardrails(staticVerifySpec, Options{}); err != nil {
		t.Fatal(err)
	}

	cs, err := compile.Source(staticVerifySpec)
	if err != nil {
		t.Fatal(err)
	}
	unproven := *cs[0]
	prog := *unproven.Program
	prog.Meta = vm.ProgramMeta{} // what a decoded image looks like
	prog.Name = "decoded-image-twin"
	unproven.Program = &prog
	unproven.Name = prog.Name
	if _, err := sys.Runtime.Load(&unproven, Options{}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := sink.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"monitor_loads_proven_total 1",
		"monitor_loads_guarded_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCompiledProgramsCarryProof: every compiled program has Meta proof
// fields set.
func TestCompiledProgramsCarryProof(t *testing.T) {
	cs, err := compile.Source(staticVerifySpec)
	if err != nil {
		t.Fatal(err)
	}
	p := cs[0].Program
	if !p.Meta.TrapFree || p.Meta.MaxSteps <= 0 {
		t.Fatalf("compiled program carries no proof: %+v", p.Meta)
	}
}
