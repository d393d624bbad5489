package monitor

import (
	"fmt"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
)

// updateSource compiles src, which must hold exactly one guardrail, and
// hot-swaps it in.
func updateSource(rt *Runtime, src string, opts Options) (*Monitor, error) {
	cs, err := compile.Source(src)
	if err != nil {
		return nil, err
	}
	if len(cs) != 1 {
		return nil, fmt.Errorf("want exactly one guardrail, got %d", len(cs))
	}
	return rt.Update(cs[0], opts)
}

func TestHotUpdateTightensThreshold(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	if _, err := rt.LoadSource(listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	// 0.04 passes the original 0.05 threshold.
	st.Save("false_submit_rate", 0.04)
	k.RunUntil(2500 * kernel.Millisecond)
	if st.Load("ml_enabled") != 1 {
		t.Fatal("original guardrail fired unexpectedly")
	}

	// Hot-update to a tightened 0.02 threshold (§6: no reboot).
	tightened := strings.Replace(listing2, "0.05", "0.02", 1)
	m2, err := updateSource(rt, tightened, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(4500 * kernel.Millisecond)
	if st.Load("ml_enabled") != 0 {
		t.Error("tightened guardrail did not fire")
	}
	if m2.Stats().Evals == 0 {
		t.Error("updated monitor never evaluated")
	}
	if got := rt.Monitor("low-false-submit"); got != m2 {
		t.Error("registry still points at the old monitor")
	}
	// Exactly one registered monitor.
	if len(rt.Monitors()) != 1 {
		t.Errorf("monitors = %d", len(rt.Monitors()))
	}
}

func TestHotUpdateOldMonitorDisarmed(t *testing.T) {
	rt, k, st := newRT()
	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := ms[0]
	k.RunUntil(1500 * kernel.Millisecond)
	oldEvals := old.Stats().Evals
	if _, err := updateSource(rt, listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.9)
	k.RunUntil(5 * kernel.Second)
	if old.Stats().Evals != oldEvals {
		t.Error("old monitor still evaluating after update")
	}
}

func TestUpdateUnknownGuardrailFails(t *testing.T) {
	rt, _, _ := newRT()
	if _, err := updateSource(rt, listing2, Options{}); err == nil {
		t.Error("update of unloaded guardrail should error")
	}
}

func TestUpdateCarriesQuarantineState(t *testing.T) {
	// An operator-engaged quarantine (breakglass forced-shadow or a
	// disable) must survive a hot update: an automated swap may not
	// silently lift what an operator explicitly engaged.
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("false_submit_rate", 0.9)
	if _, err := rt.LoadSource(listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	name := rt.Monitors()[0].Name()
	rt.Monitor(name).ForceShadow(true)

	m2, err := updateSource(rt, listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.ForcedShadow() {
		t.Fatal("hot update lifted the forced-shadow quarantine")
	}
	k.RunUntil(2 * kernel.Second)
	if st.Load("ml_enabled") != 1 {
		t.Error("quarantined replacement acted")
	}

	// Disable carries over the same way.
	m2.ForceShadow(false)
	m2.SetEnabled(false)
	m3, err := updateSource(rt, listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Enabled() {
		t.Fatal("hot update re-enabled a disabled monitor")
	}
	evals := m3.Stats().Evals
	k.RunUntil(4 * kernel.Second)
	if m3.Stats().Evals != evals {
		t.Error("disabled replacement still evaluating")
	}

	// Releasing the quarantine restores enforcement on the replacement.
	m3.SetEnabled(true)
	k.RunUntil(6 * kernel.Second)
	if st.Load("ml_enabled") != 0 {
		t.Error("released replacement did not act")
	}
}

func TestShadowModeObservesWithoutActing(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms[0].ForceShadow(true)
	st.Save("false_submit_rate", 0.9)
	k.RunUntil(5 * kernel.Second)
	s := ms[0].Stats()
	if s.Violations == 0 {
		t.Fatal("shadow monitor did not observe violations")
	}
	if s.ActionsFired != 0 {
		t.Errorf("shadow monitor fired %d actions", s.ActionsFired)
	}
	if st.Load("ml_enabled") != 1 {
		t.Error("shadow monitor's SAVE leaked through")
	}
	if rt.Log.Total() != 0 {
		t.Error("shadow monitor reported violations to the log")
	}
}
