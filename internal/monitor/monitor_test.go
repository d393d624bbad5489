package monitor

import (
	"strings"
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
)

const listing2 = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`

func newRT() (*Runtime, *kernel.Kernel, *featurestore.Store) {
	k := kernel.New()
	st := featurestore.New()
	return New(k, st), k, st
}

func TestLoadListing2TimerFlow(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("false_submit_rate", 0.01)
	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]

	// Let three timer periods elapse with a healthy rate.
	k.RunUntil(3500 * kernel.Millisecond)
	if got := m.Stats().Evals; got != 4 { // t=0,1s,2s,3s
		t.Errorf("evals = %d, want 4", got)
	}
	if m.Stats().Violations != 0 || st.Load("ml_enabled") != 1 {
		t.Error("healthy rate should not trip the guardrail")
	}

	// Rate spikes; the next tick must disable the model.
	st.Save("false_submit_rate", 0.20)
	k.RunUntil(4500 * kernel.Millisecond)
	if st.Load("ml_enabled") != 0 {
		t.Error("guardrail did not disable the model")
	}
	s := m.Stats()
	if s.Violations != 1 || s.ActionsFired != 1 || s.LastResult != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFunctionTriggerPassesHookArg(t *testing.T) {
	rt, k, st := newRT()
	src := `
guardrail no-slow-io {
    trigger: { FUNCTION(io_complete) },
    rule: { LOAD(io_latency_us) < 500 },
    action: { SAVE(slow_io_seen, 1) }
}`
	if _, err := rt.LoadSource(src, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Save("io_latency_us", 100)
	k.Fire("io_complete", 100)
	if st.Load("slow_io_seen") != 0 {
		t.Error("fast IO tripped guardrail")
	}
	st.Save("io_latency_us", 900)
	k.Fire("io_complete", 900)
	if st.Load("slow_io_seen") != 1 {
		t.Error("slow IO not caught")
	}
	m := rt.Monitor("no-slow-io")
	if m.Stats().Evals != 2 {
		t.Errorf("evals = %d", m.Stats().Evals)
	}
}

func TestReportActionLogsValues(t *testing.T) {
	rt, k, st := newRT()
	src := `
guardrail reporter {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(err_rate) <= 0.1 },
    action: { REPORT(LOAD(err_rate), LOAD(total)) }
}`
	if _, err := rt.LoadSource(src, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Save("err_rate", 0.5)
	st.Save("total", 42)
	k.RunUntil(1) // t=0 tick
	if rt.Log.Total() != 1 {
		t.Fatalf("log total = %d", rt.Log.Total())
	}
	v := rt.Log.Recent(1)[0]
	if v.Guardrail != "reporter" || len(v.Values) != 2 || v.Values[0] != 0.5 || v.Values[1] != 42 {
		t.Errorf("violation = %+v", v)
	}
}

func TestReplaceActionSwapsPolicy(t *testing.T) {
	rt, k, st := newRT()
	if err := rt.Policies.DefineSlot("io_predictor",
		map[string]any{"learned": "L", "heuristic": "H"}, "learned"); err != nil {
		t.Fatal(err)
	}
	src := `
guardrail fallback {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(accuracy) >= 0.9 },
    action: { REPLACE(learned, heuristic) }
}`
	if _, err := rt.LoadSource(src, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Save("accuracy", 0.95)
	k.RunUntil(500 * kernel.Millisecond)
	if name, _, _ := rt.Policies.Current("io_predictor"); name != "learned" {
		t.Error("policy swapped while property held")
	}
	st.Save("accuracy", 0.5)
	k.RunUntil(1500 * kernel.Millisecond)
	if name, _, _ := rt.Policies.Current("io_predictor"); name != "heuristic" {
		t.Error("REPLACE did not swap policy")
	}
}

func TestRetrainActionQueues(t *testing.T) {
	rt, k, st := newRT()
	src := `
guardrail drift {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(psi) < 0.25 },
    action: { RETRAIN(io_model) }
}`
	if _, err := rt.LoadSource(src, Options{}); err != nil {
		t.Fatal(err)
	}
	st.Save("psi", 0.9)
	k.RunUntil(2500 * kernel.Millisecond)
	pending := rt.Retrainer.Pending()
	if len(pending) != 1 || pending[0].Model != "io_model" {
		t.Errorf("pending = %+v (requests must deduplicate)", pending)
	}
}

func TestHysteresisSuppressesFlappyActions(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	ms, err := rt.LoadSource(listing2, Options{ViolationStreak: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	// Alternate bad/good readings: the streak never reaches 3.
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			st.Save("false_submit_rate", 0.5)
		} else {
			st.Save("false_submit_rate", 0.0)
		}
		k.RunUntil(kernel.Time(i+1) * kernel.Second)
	}
	if st.Load("ml_enabled") != 1 {
		t.Error("flapping violations fired the action despite hysteresis")
	}
	if m.Stats().ActionsFired != 0 {
		t.Errorf("actions fired = %d", m.Stats().ActionsFired)
	}
	if m.Stats().Violations == 0 {
		t.Error("violations should still be counted")
	}
	// Sustained violation crosses the streak.
	st.Save("false_submit_rate", 0.5)
	k.RunUntil(14 * kernel.Second)
	if st.Load("ml_enabled") != 0 {
		t.Error("sustained violation did not fire the action")
	}
	if m.Stats().ActionsFired == 0 {
		t.Error("ActionsFired not counted")
	}
}

func TestDependencyTriggerEvaluatesOnWrite(t *testing.T) {
	rt, _, st := newRT()
	// Very long TIMER so only dependency triggers drive evaluation.
	src := `
guardrail dep {
    trigger: { TIMER(0, 1e15) },
    rule: { LOAD(queue_depth) < 100 },
    action: { SAVE(overload, 1) }
}`
	ms, err := rt.LoadSource(src, Options{DependencyTrigger: true})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	base := m.Stats().Evals
	st.Save("queue_depth", 50) // triggers evaluation immediately
	if m.Stats().Evals != base+1 {
		t.Errorf("evals = %d, want %d", m.Stats().Evals, base+1)
	}
	if st.Load("overload") != 0 {
		t.Error("false positive")
	}
	st.Save("queue_depth", 500)
	if st.Load("overload") != 1 {
		t.Error("dependency-triggered violation missed")
	}
	// Writes to unrelated keys do not evaluate.
	before := m.Stats().Evals
	st.Save("unrelated", 1)
	if m.Stats().Evals != before {
		t.Error("unrelated write triggered evaluation")
	}
}

// TestUnloadRemovesDependencyWatchers: unloading or updating a
// dependency-triggered monitor must cancel its store watchers, not leave
// them behind as no-ops — a rollout controller cycles generations, and
// each leaked closure pins its dead monitor and runs on every SAVE of the
// key. Re-enabling a dead generation through a stale handle makes a
// leaked watcher visible: it would evaluate again.
func TestUnloadRemovesDependencyWatchers(t *testing.T) {
	rt, _, st := newRT()
	const src = `
guardrail dep {
    trigger: { TIMER(0, 1e15) },
    rule: { LOAD(queue_depth) < 100 },
    action: { SAVE(overload, 1) }
}`
	opts := Options{DependencyTrigger: true}
	var dead []*Monitor
	for gen := 0; gen < 500; gen++ {
		var m *Monitor
		if gen%2 == 0 {
			ms, err := rt.LoadSource(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			m = ms[0]
		} else {
			var err error
			if m, err = updateSource(rt, src, opts); err != nil {
				t.Fatal(err)
			}
		}
		// An update carries the old generation's counters over.
		before := m.Stats().Evals
		st.Save("queue_depth", float64(gen%50))
		if m.Stats().Evals != before+1 {
			t.Fatalf("generation %d: evals = %d after its first write, want %d", gen, m.Stats().Evals, before+1)
		}
		dead = append(dead, m)
		if gen%2 == 1 {
			if err := rt.Unload("dep"); err != nil {
				t.Fatal(err)
			}
		}
	}
	evals := make([]uint64, len(dead))
	for gen, m := range dead {
		m.SetEnabled(true)
		evals[gen] = m.Stats().Evals
	}
	st.Save("queue_depth", 1)
	for gen, m := range dead {
		if got := m.Stats().Evals; got != evals[gen] {
			t.Fatalf("dead generation %d evaluated again (evals %d -> %d): its store watcher outlived it", gen, evals[gen], got)
		}
	}
}

func TestUnloadStopsEvaluation(t *testing.T) {
	rt, k, st := newRT()
	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	k.RunUntil(2500 * kernel.Millisecond)
	evals := m.Stats().Evals
	if evals == 0 {
		t.Fatal("monitor never ran")
	}
	if err := rt.Unload("low-false-submit"); err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.9)
	k.RunUntil(10 * kernel.Second)
	if m.Stats().Evals != evals {
		t.Error("unloaded monitor kept evaluating")
	}
	if rt.Monitor("low-false-submit") != nil {
		t.Error("monitor still registered")
	}
	if err := rt.Unload("low-false-submit"); err == nil {
		t.Error("double unload should error")
	}
}

func TestDuplicateLoadFails(t *testing.T) {
	rt, _, _ := newRT()
	if _, err := rt.LoadSource(listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LoadSource(listing2, Options{}); err == nil {
		t.Error("duplicate load should error")
	}
}

func TestDispatchErrorSurfacesInLog(t *testing.T) {
	rt, k, st := newRT()
	// REPLACE with no policies registered: Replace(old==new) is caught
	// at check time, but unknown policies silently swap 0 slots — that
	// is legal. Use DEPRIORITIZE, whose task group no runtime binds.
	src := `
guardrail broken {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(x) < 1 },
    action: { DEPRIORITIZE(ghost_group) }
}`
	ms, err := rt.LoadSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("x", 5)
	k.RunUntil(1)
	if ms[0].Stats().DispatchErrors == 0 {
		t.Error("dispatch error not counted")
	}
	found := false
	for _, v := range rt.Log.Recent(10) {
		if strings.Contains(v.Note, "ghost_group") {
			found = true
		}
	}
	if !found {
		t.Error("dispatch error not logged")
	}
}

func TestSetEnabledPausesMonitor(t *testing.T) {
	rt, k, st := newRT()
	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	m.SetEnabled(false)
	st.Save("false_submit_rate", 0.9)
	st.Save("ml_enabled", 1)
	k.RunUntil(3 * kernel.Second)
	if st.Load("ml_enabled") != 1 {
		t.Error("disabled monitor acted")
	}
	m.SetEnabled(true)
	k.RunUntil(4 * kernel.Second)
	if st.Load("ml_enabled") != 0 {
		t.Error("re-enabled monitor did not act")
	}
}

func TestMonitorsListing(t *testing.T) {
	rt, _, _ := newRT()
	src := listing2 + `
guardrail another {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(y) < 1 },
    action: { REPORT() }
}`
	if _, err := rt.LoadSource(src, Options{}); err != nil {
		t.Fatal(err)
	}
	ms := rt.Monitors()
	if len(ms) != 2 || ms[0].Name() != "another" || ms[1].Name() != "low-false-submit" {
		names := []string{}
		for _, m := range ms {
			names = append(names, m.Name())
		}
		t.Errorf("monitors = %v", names)
	}
	if ms[0].Program() == nil {
		t.Error("program accessor broken")
	}
}

func TestLoadSourceRollsBackOnPartialFailure(t *testing.T) {
	rt, _, _ := newRT()
	// Second guardrail duplicates an already-loaded name.
	if _, err := rt.LoadSource(listing2, Options{}); err != nil {
		t.Fatal(err)
	}
	src := `
guardrail fresh {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(y) < 1 },
    action: { REPORT() }
}` + listing2
	if _, err := rt.LoadSource(src, Options{}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if rt.Monitor("fresh") != nil {
		t.Error("partial load not rolled back")
	}
}

func TestTimerWithStopTime(t *testing.T) {
	rt, k, st := newRT()
	src := `
guardrail windowed {
    trigger: { TIMER(0, 1e9, 3e9) },
    rule: { LOAD(x) < 1 },
    action: { REPORT() }
}`
	ms, err := rt.LoadSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("x", 0)
	k.RunUntil(10 * kernel.Second)
	if got := ms[0].Stats().Evals; got != 3 { // t=0,1s,2s
		t.Errorf("evals = %d, want 3", got)
	}
}
