package guardrails

// Allocation guards for the in-kernel hot paths: a monitor evaluation
// must not touch the heap, or the guardrail's own overhead violates the
// P5 discipline it enforces — and neither must the learned decision it
// guards (an inference, a LinnOS read). testing.AllocsPerRun fails these
// the moment a change reintroduces a per-dispatch, per-evaluation or
// per-inference allocation.

import (
	"fmt"
	"strings"
	"testing"

	"guardrails/internal/cache"
	"guardrails/internal/compile"
	"guardrails/internal/experiments"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/sched"
	"guardrails/internal/storage"
	"guardrails/internal/telemetry"
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

// evaluateAllocs loads the one guardrail in src, lets setup prepare the
// runtime's backends and the feature store, and evaluates the monitor
// past one wrap of the runtime's 4 096-slot report ring, so every ring
// slot has been written once. It returns the allocations per further
// evaluation and the monitor.
func evaluateAllocs(t *testing.T, src string, setup func(*monitor.Runtime, *featurestore.Store)) (float64, *monitor.Runtime, *monitor.Monitor) {
	t.Helper()
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	setup(rt, st)
	ms, err := rt.LoadSource(src, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	for i := 0; i <= 4096; i++ {
		m.Evaluate(0)
	}
	return testing.AllocsPerRun(1000, func() { m.Evaluate(0) }), rt, m
}

// TestEvaluateEveryPathAllocationFree: a helper call, a REPORT, a SAVE
// beside a REPORT, a REPLACE whose policy is already swapped and a
// RETRAIN that collapses into its pending request each evaluate with
// no allocation — the violating path is the hot path in a violation
// storm.
func TestEvaluateEveryPathAllocationFree(t *testing.T) {
	const guardrail = `
guardrail g {
    trigger: { FUNCTION(io_done) },
    rule: { %s },
    action: { %s }
}`
	violate := func(_ *monitor.Runtime, st *featurestore.Store) { st.Save("x", 20) }
	for _, c := range []struct {
		name, rule, action string
		setup              func(*monitor.Runtime, *featurestore.Store)
		violates           bool
	}{
		{"holding helper call", "sqrt(LOAD(x)) < 10", "REPORT(LOAD(x))",
			func(_ *monitor.Runtime, st *featurestore.Store) { st.Save("x", 4) }, false},
		{"violating REPORT", "LOAD(x) < 10", "REPORT(LOAD(x))", violate, true},
		{"violating SAVE+REPORT", "LOAD(x) < 10", "SAVE(y, LOAD(x) * 2)\n        REPORT(LOAD(x), LOAD(y))", violate, true},
		{"steady-state REPLACE", "LOAD(x) < 10", "REPLACE(learned, heuristic)",
			func(rt *monitor.Runtime, st *featurestore.Store) {
				violate(rt, st)
				if err := rt.Policies.DefineSlot("io_predictor",
					map[string]any{"learned": "L", "heuristic": "H"}, "learned"); err != nil {
					t.Fatal(err)
				}
			}, true},
		{"collapsed RETRAIN", "LOAD(x) < 10", "RETRAIN(linnos)", violate, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(guardrail, c.rule, c.action)
			n, rt, m := evaluateAllocs(t, src, c.setup)
			if n != 0 {
				t.Errorf("Monitor.Evaluate allocates %v times per evaluation, want 0", n)
			}
			s := m.Stats()
			if got := s.Violations == s.Evals; got != c.violates || s.DispatchErrors != 0 || s.Traps != 0 {
				t.Fatalf("stats %+v: the measurement exercised the wrong path", s)
			}
			if c.violates && s.ActionsFired != s.Evals {
				t.Fatalf("%d of %d evaluations acted", s.ActionsFired, s.Evals)
			}
			if strings.Contains(c.action, "REPORT") && c.violates && rt.Log.Total() != s.Evals {
				t.Fatalf("%d reports for %d violations", rt.Log.Total(), s.Evals)
			}
		})
	}
}

// TestKernelFireObservedAllocationFree: a fire allocates nothing — not
// bare, where the arguments go on the kernel's own stack instead of a
// variadic slice that escapes, and not observed, with sampled wall
// timing, three flight events, the resolved histogram handles and
// provenance's healthy sampling.
func TestKernelFireObservedAllocationFree(t *testing.T) {
	const src = `
guardrail low-false-submit {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`
	fireAllocs := func(observed bool) float64 {
		k := kernel.New()
		st := featurestore.New()
		rt := monitor.New(k, st)
		if observed {
			sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 4096)
			k.SetTelemetry(sink)
			rt.SetTelemetry(sink)
			st.SetTelemetry(sink)
			rt.SetProvenance(provenance.New(4096, 64))
		}
		if _, err := rt.LoadSource(src, monitor.Options{}); err != nil {
			t.Fatal(err)
		}
		st.Save("false_submit_rate", 0.01)
		arg := 0.0
		fire := func() { arg++; k.Fire("io_done", arg) }
		fire() // resolve the handles
		return testing.AllocsPerRun(1000, fire)
	}
	if bare, observed := fireAllocs(false), fireAllocs(true); bare != 0 || observed != 0 {
		t.Errorf("a bare fire allocates %v times and an observed one %v, want 0 and 0", bare, observed)
	}
}

// TestKernelFireSwitchingSitesAllocationFree: a fire of a site other
// than the one the kernel fired last looks the site up by name, and
// that path allocates nothing either.
func TestKernelFireSwitchingSitesAllocationFree(t *testing.T) {
	k := kernel.New()
	sites := []string{"io_submit", "io_done"}
	for _, s := range sites {
		k.Attach(s, func(*kernel.Kernel, string, []float64) {})
	}
	n := 0
	fire := func() { n++; k.Fire(sites[n%2], float64(n)) }
	fire()
	if allocs := testing.AllocsPerRun(1000, fire); allocs != 0 {
		t.Errorf("a fire that switches site allocates %v times, want 0", allocs)
	}
	if a, b := k.FireCount(sites[0]), k.FireCount(sites[1]); a+b != uint64(n) || max(a, b)-min(a, b) > 1 {
		t.Errorf("FireCount %d and %d after %d alternating fires", a, b, n)
	}
}

// TestEventLoopAllocationFree: once the event heap has grown to its
// working size, neither a timer period (the tick re-queues its own
// closure) nor a one-shot At followed by RunUntil touches the heap.
func TestEventLoopAllocationFree(t *testing.T) {
	k := kernel.New()
	ticks := 0
	k.Every(0, kernel.Microsecond, 0, func(kernel.Time) { ticks++ })
	at := kernel.Time(0)
	period := func() {
		at += kernel.Microsecond
		k.RunUntil(at)
	}
	period()
	if n := testing.AllocsPerRun(1000, period); n != 0 {
		t.Errorf("a steady-state Every period allocates %v times, want 0", n)
	}
	if ticks < 1000 {
		t.Fatalf("%d ticks; the measurement exercised the wrong path", ticks)
	}

	noop := func() {}
	oneShot := func() {
		at += kernel.Microsecond
		k.At(at-1, noop)
		k.RunUntil(at)
	}
	oneShot()
	if n := testing.AllocsPerRun(1000, oneShot); n != 0 {
		t.Errorf("At + RunUntil allocates %v times, want 0", n)
	}
}

// TestPredictSlowAllocationFree: float and int16 inference both run in
// scratch the model owns.
func TestPredictSlowAllocationFree(t *testing.T) {
	c := linnos.NewClassifier(1)
	features := make([]float64, linnos.NumFeatures)
	for _, mode := range []string{"float", "quantized"} {
		if mode == "quantized" {
			if err := c.EnableQuantized(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(1000, func() { c.PredictSlow(features) }); n != 0 {
			t.Errorf("%s Classifier.PredictSlow allocates %v times per run, want 0", mode, n)
		}
	}
}

// TestEngineReadMLPathAllocation: a model-routed read builds its
// features in the engine's buffer and fires its completion hook from
// the kernel's own argument stack: nothing allocates.
func TestEngineReadMLPathAllocation(t *testing.T) {
	mk := func(name string, seed int64) *storage.Device {
		d, err := storage.NewDevice(storage.DefaultDeviceConfig(name, seed))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	arr, err := storage.NewArray(mk("primary", 1), mk("replica", 2))
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New()
	model := &countingPredictor{Predictor: linnos.NewClassifier(1)}
	e, err := linnos.NewEngine(k, featurestore.New(), arr, model, linnos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := kernel.Time(0)
	read := func() {
		now += 50 * kernel.Microsecond
		e.Read(now, uint64(now))
	}
	read()
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Errorf("Engine.Read on the ML path allocates %v times per run, want 0", n)
	}
	// Every model-routed read asks the model at least once.
	if st := e.Stats(); uint64(model.calls) < st.Reads || st.Reads == 0 {
		t.Fatalf("%d inferences for %d reads; the measurement exercised the wrong path", model.calls, st.Reads)
	}
}

// countingPredictor counts the inferences an engine asks of a model.
type countingPredictor struct {
	linnos.Predictor
	calls int
}

func (c *countingPredictor) PredictSlow(f []float64) bool {
	c.calls++
	return c.Predictor.PredictSlow(f)
}

// TestLearnedDecisionsAllocationFree: the other learned policies decide
// through the same inference path, feature vector included.
func TestLearnedDecisionsAllocationFree(t *testing.T) {
	evictor := cache.NewLearned(1)
	for key := uint64(0); key < 64; key++ {
		evictor.OnInsert(key)
	}
	if n := testing.AllocsPerRun(1000, func() { evictor.Victim() }); n != 0 {
		t.Errorf("learned cache Victim allocates %v times per run, want 0", n)
	}

	picker := sched.NewLearnedSJF(1)
	ready := []*sched.Job{{ID: 1, SizeHint: 2, CPUUsed: kernel.Millisecond}, {ID: 2, SizeHint: 5}, {ID: 3, SizeHint: 1}}
	if n := testing.AllocsPerRun(1000, func() { picker.Pick(0, ready) }); n != 0 {
		t.Errorf("learned scheduler Pick allocates %v times per run, want 0", n)
	}
}
