package guardrails

import (
	"errors"
	"testing"
)

// A deployment that breaks its own declared property: err is certified
// to sit in [0.8, 1], so the guardrail's rule always fails and its
// action drives q to 1 — refuting "assert always LOAD(q) <= 0".
const selfRefutingDeployment = `
feature err range(0.8, 1)

assert always LOAD(q) <= 0

guardrail raise-q {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(err) < 0.5 },
    action: { SAVE(q, 1) }
}`

// TestSystemLoadDeploymentHonoursAssertBlocks: the source's own assert
// blocks are admission conditions. The facade used to forward the
// file's feature declarations and drop its properties, so the text
// ModelCheckDeployment reports REFUTED was admitted under DeployEnforce
// with its monitor armed.
func TestSystemLoadDeploymentHonoursAssertBlocks(t *testing.T) {
	rep, err := ModelCheckDeployment(selfRefutingDeployment)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Properties) != 1 || rep.Properties[0].Status != "REFUTED" {
		t.Fatalf("ModelCheckDeployment = %+v, want the assert REFUTED", rep.Properties)
	}

	sys := NewSystem()
	res, err := sys.LoadDeployment(selfRefutingDeployment, DeployConfig{})
	var derr *DeployError
	if !errors.As(err, &derr) {
		t.Fatalf("DeployEnforce: got %v, want *DeployError", err)
	}
	if derr.Temporal == nil {
		t.Error("DeployError carries no temporal report")
	}
	if len(res.Monitors) != 0 || len(sys.Runtime.Monitors()) != 0 {
		t.Error("refused deployment left monitors loaded")
	}

	sys = NewSystem()
	res, err = sys.LoadDeployment(selfRefutingDeployment, DeployConfig{Policy: DeployWarn})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shadowed) != 1 || res.Shadowed[0] != "raise-q" {
		t.Errorf("DeployWarn Shadowed = %v, want [raise-q]", res.Shadowed)
	}
}
