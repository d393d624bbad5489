package guardrails

// Allocation guards for the in-kernel hot paths: a monitor evaluation
// must not touch the heap, or the guardrail's own overhead violates the
// P5 discipline it enforces. testing.AllocsPerRun fails these the moment
// a change reintroduces a per-dispatch or per-evaluation allocation.

import (
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/experiments"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/vm"
)

// staticEnv is the smallest possible vm.Env: direct cell-index access.
type staticEnv struct{ vals []float64 }

func (e *staticEnv) LoadCell(i int32) float64     { return e.vals[i] }
func (e *staticEnv) StoreCell(i int32, v float64) { e.vals[i] = v }
func (e *staticEnv) Helper(h vm.HelperID, args *[5]float64) (float64, error) {
	return 0, nil
}

func TestMachineRunAllocationFree(t *testing.T) {
	cs, err := compile.Source(experiments.Listing2)
	if err != nil {
		t.Fatal(err)
	}
	env := &staticEnv{vals: make([]float64, len(cs[0].Program.Symbols))}
	var m vm.Machine
	if _, err := m.Run(cs[0].Program, env, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := m.Run(cs[0].Program, env, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("vm.Machine.Run allocates %v times per run, want 0", n)
	}
}

func TestMonitorEvaluateSteadyStateAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(experiments.Listing2, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01) // property holds: no action dispatch
	ms[0].Evaluate(0)                  // warm up lazy state
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("steady-state Monitor.Evaluate allocates %v times per run, want 0", n)
	}
}

// TestMonitorEvaluateProvenanceDisabledAllocationFree: the nil-recorder
// capture sites (one atomic load plus nil tests) must keep the hot path
// allocation-free — the CI gate for the disabled provenance plane.
func TestMonitorEvaluateProvenanceDisabledAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	rt.SetProvenance(nil) // explicit: the disabled plane
	ms, err := rt.LoadSource(experiments.Listing2, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01)
	ms[0].Evaluate(0)
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("Evaluate with provenance disabled allocates %v times per run, want 0", n)
	}
}

// TestMonitorEvaluateProvenanceEnabledAllocationFree: even with every
// decision recorded (healthyEvery=1, branch tracing on, scratch fill,
// ring commit), capture stays on the stack and in preallocated rings.
func TestMonitorEvaluateProvenanceEnabledAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	rt.SetProvenance(provenance.New(256, 1))
	ms, err := rt.LoadSource(experiments.Listing2, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01)
	ms[0].Evaluate(0)
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("Evaluate with provenance enabled allocates %v times per run, want 0", n)
	}
	if rt.Provenance().Total() == 0 {
		t.Fatal("recorder captured nothing; the measurement exercised the wrong path")
	}
}
