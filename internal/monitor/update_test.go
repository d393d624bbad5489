package monitor

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/telemetry"
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
	// Stats are shared by every generation under the name, so the old
	// generation's own VM is what tells whether it still runs.
	oldSteps := old.machine.Steps
	if oldSteps == 0 {
		t.Fatal("old monitor never evaluated before the update")
	}
	if _, err := updateSource(rt, listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.9)
	k.RunUntil(5 * kernel.Second)
	if old.machine.Steps != oldSteps {
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

// TestHotUpdateUnderFireKeepsEveryEvaluation is the regression test for
// evaluations lost across a hot Update: the replaced generation may
// still be evaluating on the goroutine that fires the kernel while
// another goroutine installs its successor, and those last evaluations
// must still be counted. With one goroutine firing and another running
// 300 Updates, the cumulative Stats().Evals and VMSteps equal
// telemetry's evals_total and vm_steps_total.
func TestHotUpdateUnderFireKeepsEveryEvaluation(t *testing.T) {
	rt, k, st := newRT()
	sink := telemetry.New(nil, 1<<10)
	rt.SetTelemetry(sink)
	st.Save("err_rate", 0.001) // holds: the fire path, no actions
	cs, err := compile.Source(`
guardrail steady {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Load(cs[0], Options{}); err != nil {
		t.Fatal(err)
	}
	updated := make(chan struct{})
	stopped := fireUntil(updated, 0, func(n int) { k.Fire("io_submit", float64(n)) })
	for i := 0; i < 300; i++ {
		if _, err := rt.Update(cs[0], Options{}); err != nil {
			t.Error(err)
			break
		}
	}
	close(updated)
	<-stopped

	m := rt.Monitor("steady")
	s, c := m.Stats(), &sink.Counters
	if s.Evals != c.Evals.Value() || s.Evals == 0 {
		t.Errorf("cumulative Stats().Evals = %d, telemetry evals_total = %d; want them equal and non-zero", s.Evals, c.Evals.Value())
	}
	if s.VMSteps != c.VMSteps.Value() {
		t.Errorf("cumulative Stats().VMSteps = %d, telemetry vm_steps_total = %d", s.VMSteps, c.VMSteps.Value())
	}
	if got := m.Generation(); got != 301 {
		t.Errorf("generation = %d, want 301", got)
	}
}

// TestHotUpdateKeepsTheOldGenerationsPendingRetries: a replaced
// generation's action retries still run after the update, on the
// kernel, and what they count — dispatch errors, retries, the dead
// letter — belongs in the cumulative Stats, although the replacement
// has already evaluated when those retries run.
func TestHotUpdateKeepsTheOldGenerationsPendingRetries(t *testing.T) {
	rt, k, st := newRT()
	sink := telemetry.New(nil, 1<<10)
	rt.SetTelemetry(sink)
	if err := rt.Policies.DefineSlot("io_predictor",
		map[string]any{"learned": "L", "heuristic": "H"}, "learned"); err != nil {
		t.Fatal(err)
	}
	const src = `
guardrail fallback {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(accuracy) >= 0.9 },
    action: { REPLACE(learned, heuristic) }
}`
	opts := Options{RetryMax: 2, RetryBase: 100 * kernel.Millisecond}
	if _, err := rt.LoadSource(src, opts); err != nil {
		t.Fatal(err)
	}
	st.Save("accuracy", 0.5)
	rt.SetFaultInjector(&testInjector{
		actionFault: func(string, string) error { return errors.New("backend down") },
	})
	// t=0: the dispatch fails; retries are due at 100 ms and 300 ms.
	k.RunUntil(50 * kernel.Millisecond)
	// The replacement holds, so every action below is the old one's; its
	// timer evaluates at once, before the first retry.
	m2, err := updateSource(rt, strings.Replace(src, "0.9", "0.1", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(1500 * kernel.Millisecond) // m2 evaluates again at 1 s
	s := m2.Stats()
	if s.DispatchErrors != 3 || s.Retries != 2 || s.DeadLetters != 1 {
		t.Errorf("cumulative stats %+v; want the old generation's 3 dispatch errors, 2 retries, 1 dead letter", s)
	}
	c := &sink.Counters
	if s.DispatchErrors != c.ActionErrors.Value() || s.Retries != c.Retries.Value() || s.DeadLetters != rt.DeadLetter.Total() {
		t.Errorf("stats %+v disagree with telemetry (%d errors, %d retries) and the dead-letter ring (%d)",
			s, c.ActionErrors.Value(), c.Retries.Value(), rt.DeadLetter.Total())
	}
}

// TestHotUpdateInsideAnEvaluationKeepsItsCount: an Update made while the
// old generation is mid-evaluation — here by a store watcher its first
// SAVE wakes — arms a dependency-triggered replacement that its second
// SAVE evaluates, nested inside the old evaluation. The old evaluation
// counts itself after the nested one has finished, and must still land
// in the cumulative Stats.
func TestHotUpdateInsideAnEvaluationKeepsItsCount(t *testing.T) {
	rt, k, st := newRT()
	st.Save("y", 1) // the old rule is violated: both SAVEs run
	if _, err := rt.LoadSource(`
guardrail g {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(y) <= 0 },
    action: { SAVE(x, 1), SAVE(x, 2) }
}`, Options{}); err != nil {
		t.Fatal(err)
	}
	var m2 *Monitor
	st.Watch("x", func(string, float64) {
		if m2 != nil {
			return
		}
		var err error
		if m2, err = updateSource(rt, `
guardrail g {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(x) <= 100 },
    action: { REPORT(LOAD(x)) }
}`, Options{DependencyTrigger: true}); err != nil {
			t.Fatal(err)
		}
	})
	k.Fire("io_submit", 0)
	if m2 == nil {
		t.Fatal("the old generation's SAVE did not run the update")
	}
	// The old generation's one evaluation and the replacement's nested one.
	if got := m2.Stats().Evals; got != 2 {
		t.Errorf("cumulative evals = %d after the nested update, want 2", got)
	}
	k.Fire("io_submit", 0)
	if got := m2.Stats().Evals; got != 3 {
		t.Errorf("after the next fire: cumulative evals = %d, want 3", got)
	}
}
