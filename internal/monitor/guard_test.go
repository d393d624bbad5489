package monitor

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// testInjector is a programmable FaultInjector for monitor tests.
type testInjector struct {
	evalFault   func(guardrail string) error
	loadFault   func(guardrail, key string, value float64) (float64, bool)
	helperFault func(guardrail string, h vm.HelperID) error
	actionFault func(guardrail, action string) error
}

func (i *testInjector) EvalFault(g string) error {
	if i.evalFault == nil {
		return nil
	}
	return i.evalFault(g)
}

func (i *testInjector) LoadFault(g, key string, v float64) (float64, bool) {
	if i.loadFault == nil {
		return 0, false
	}
	return i.loadFault(g, key, v)
}

func (i *testInjector) HelperFault(g string, h vm.HelperID) error {
	if i.helperFault == nil {
		return nil
	}
	return i.helperFault(g, h)
}

func (i *testInjector) ActionFault(g, action string) error {
	if i.actionFault == nil {
		return nil
	}
	return i.actionFault(g, action)
}

// stateOf reads the monitor's position on the degradation ladder. The
// state is owned: call it on the owner or after it has stopped.
func stateOf(m *Monitor) State { return m.state }

func logNotes(rt *Runtime) []string {
	var notes []string
	for _, v := range rt.Log.Recent(10000) {
		if v.Note != "" {
			notes = append(notes, v.Note)
		}
	}
	return notes
}

func countNotes(rt *Runtime, substr string) int {
	n := 0
	for _, note := range logNotes(rt) {
		if strings.Contains(note, substr) {
			n++
		}
	}
	return n
}

// A run of injected evaluation faults must trip the breaker, suspend
// evaluation, and rearm after the cooldown — with every transition
// reported.
func TestBreakerQuarantinesAndRearms(t *testing.T) {
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.01)
	st.Save("ml_enabled", 1)
	ms, err := rt.LoadSource(listing2, Options{
		BreakerThreshold: 3,
		BreakerWindow:    10 * kernel.Second,
		Cooldown:         2 * kernel.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]

	// Faults at t=0,1s,2s trip the breaker on the third.
	rt.SetFaultInjector(&testInjector{
		evalFault: func(string) error {
			if k.Now() < 2500*kernel.Millisecond {
				return errors.New("injected crash")
			}
			return nil
		},
	})
	k.RunUntil(2500 * kernel.Millisecond)
	if got := stateOf(m); got != StateQuarantined {
		t.Fatalf("state after 3 faults = %v, want quarantined", got)
	}
	s := m.Stats()
	if s.Traps != 3 || s.Quarantines != 1 {
		t.Errorf("stats = %+v, want 3 traps 1 quarantine", s)
	}
	evalsAtQuarantine := s.Evals

	// While quarantined the timer still ticks but nothing evaluates.
	k.RunUntil(4 * kernel.Second)
	if got := m.Stats().Evals; got != evalsAtQuarantine {
		t.Errorf("evals advanced to %d during quarantine", got)
	}

	// Cooldown expires 2s after the trip (t≈4s): evaluation resumes.
	k.RunUntil(6500 * kernel.Millisecond)
	if got := stateOf(m); got != StateActive {
		t.Fatalf("state after cooldown = %v, want active", got)
	}
	s = m.Stats()
	if s.Rearms != 1 {
		t.Errorf("rearms = %d, want 1", s.Rearms)
	}
	if s.Evals <= evalsAtQuarantine {
		t.Error("evaluation did not resume after rearm")
	}
	if countNotes(rt, "monitor fault [injected-trap]") != 3 {
		t.Errorf("fault notes = %d, want 3; notes: %v", countNotes(rt, "monitor fault"), logNotes(rt))
	}
	if countNotes(rt, "quarantined (fail-open)") != 1 || countNotes(rt, "rearmed (cooldown)") != 1 {
		t.Errorf("transition notes missing: %v", logNotes(rt))
	}
}

// FailClosed quarantine drives the system to its safe configuration via
// Fallback and undoes it via Restore on rearm.
func TestFailClosedFallbackAndRestore(t *testing.T) {
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.01)
	st.Save("ml_enabled", 1)
	_, err := rt.LoadSource(listing2, Options{
		OnFault:          FailClosed,
		BreakerThreshold: 2,
		Cooldown:         kernel.Second,
		Fallback:         func(m *Monitor) { st.Save("ml_enabled", 0) },
		Restore:          func(m *Monitor) { st.Save("ml_enabled", 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultInjector(&testInjector{
		evalFault: func(string) error {
			if k.Now() < 1500*kernel.Millisecond {
				return errors.New("boom")
			}
			return nil
		},
	})
	k.RunUntil(1200 * kernel.Millisecond) // faults at t=0,1s → trip
	if st.Load("ml_enabled") != 0 {
		t.Fatal("fail-closed quarantine did not run the fallback")
	}
	k.RunUntil(3 * kernel.Second) // cooldown rearm at ~2s
	if st.Load("ml_enabled") != 1 {
		t.Fatal("rearm did not run the restore")
	}
}

// A failing action backend is retried with exponential backoff and
// dead-lettered when retries are exhausted; a backend that recovers
// mid-retry is logged as recovered.
func TestActionRetryAndDeadLetter(t *testing.T) {
	rt, k, st := newRT()
	src := `
guardrail fallback {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(accuracy) >= 0.9 },
    action: { REPLACE(learned, heuristic) }
}`
	if err := rt.Policies.DefineSlot("io_predictor",
		map[string]any{"learned": "L", "heuristic": "H"}, "learned"); err != nil {
		t.Fatal(err)
	}
	ms, err := rt.LoadSource(src, Options{
		RetryMax:  2,
		RetryBase: 100 * kernel.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	st.Save("accuracy", 0.5)

	rt.SetFaultInjector(&testInjector{
		actionFault: func(_, action string) error {
			if strings.HasPrefix(action, "REPLACE") && k.Now() < 250*kernel.Millisecond {
				return errors.New("backend unavailable")
			}
			return nil
		},
	})

	// t=0: dispatch fails; retries at 100ms (fails) and 100+200=300ms
	// (injection window closed → succeeds).
	k.RunUntil(900 * kernel.Millisecond)
	if name, _, _ := rt.Policies.Current("io_predictor"); name != "heuristic" {
		t.Fatal("retried REPLACE never landed")
	}
	s := m.Stats()
	if s.Retries != 2 || s.DispatchErrors != 2 || s.DeadLetters != 0 {
		t.Errorf("stats = %+v, want 2 retries, 2 dispatch errors, 0 dead letters", s)
	}
	if countNotes(rt, "action REPLACE(learned, heuristic) failed (attempt") != 2 {
		t.Errorf("failure notes: %v", logNotes(rt))
	}
	if countNotes(rt, "recovered (attempt 3)") != 1 {
		t.Errorf("recovery note missing: %v", logNotes(rt))
	}

	// Now fail permanently: REPLACE back to learned cannot run, and the
	// third failed attempt lands in the dead-letter queue.
	rt.SetFaultInjector(&testInjector{
		actionFault: func(_, action string) error { return errors.New("backend gone") },
	})
	if _, err := rt.Policies.Replace("heuristic", "learned", k.Now()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2 * kernel.Second) // next tick dispatches REPLACE again
	k.RunUntil(3 * kernel.Second) // drain retries
	if got := rt.DeadLetter.Total(); got == 0 || got != m.Stats().DeadLetters {
		t.Fatalf("dead letters: runtime %d, monitor %d; want equal and non-zero", got, m.Stats().DeadLetters)
	}
	if countNotes(rt, "action REPLACE(learned, heuristic) failed (attempt 3)") == 0 {
		t.Errorf("final attempt not reported: %v", logNotes(rt))
	}
}

// A NaN feature read must not poison the rule: the monitor substitutes
// the cell's last known good value, reports the corruption, and keeps
// enforcing.
func TestCorruptLoadPatchedWithLastGood(t *testing.T) {
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.01)
	st.Save("ml_enabled", 1)
	ms, err := rt.LoadSource(listing2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]

	k.RunUntil(500 * kernel.Millisecond) // t=0: good read seeds lastGood
	st.Save("false_submit_rate", math.NaN())
	k.RunUntil(2500 * kernel.Millisecond) // t=1s,2s read NaN
	s := m.Stats()
	if s.LoadFaults != 2 {
		t.Errorf("load faults = %d, want 2", s.LoadFaults)
	}
	if s.Violations != 0 || st.Load("ml_enabled") != 1 {
		t.Error("NaN read flipped the guardrail; last-good substitution failed")
	}
	if countNotes(rt, "monitor fault [corrupt-load]") != 2 {
		t.Errorf("corruption not reported: %v", logNotes(rt))
	}

	// The store recovers; a genuine violation still enforces.
	st.Save("false_submit_rate", 0.2)
	k.RunUntil(3500 * kernel.Millisecond)
	if st.Load("ml_enabled") != 0 {
		t.Error("guardrail dead after corruption window")
	}
}

// Regression (was: silently treated as a violation with no classified
// note): a deliberately corrupted monitor image must surface every VM
// trap in the report log with a structured note, not crash, and not
// count as a property violation.
func TestCorruptedImageSurfacesTrap(t *testing.T) {
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.01)
	st.Save("ml_enabled", 1)
	cs, err := compile.Source(listing2)
	if err != nil {
		t.Fatal(err)
	}
	c := cs[0]
	// Corrupt the image the way a bad loader or flipped bit would:
	// an opcode outside the ISA.
	c.Program.Code[0].Op = vm.Op(200)
	m, err := rt.Load(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2500 * kernel.Millisecond)
	s := m.Stats()
	if s.Traps != 3 {
		t.Errorf("traps = %d, want 3 (t=0,1s,2s)", s.Traps)
	}
	if s.Violations != 0 {
		t.Errorf("a trap must not count as a violation; stats = %+v", s)
	}
	if st.Load("ml_enabled") != 1 {
		t.Error("trapped evaluation fired an action")
	}
	if countNotes(rt, "monitor fault [bad-opcode-trap]") != 3 {
		t.Errorf("trap notes missing or unclassified: %v", logNotes(rt))
	}
}

// countKind counts the recorder's records of one kind.
func countKind(rec *provenance.Recorder, kind provenance.Kind) int {
	n := 0
	for _, r := range rec.Records() {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// actingAt is the trigger time of the first evaluation at which a
// TIMER(0, 1e9) monitor that violates from t=0 acts and has already
// read its feature once: the evaluation completing the streak, but
// never the first evaluation, which has no last good value to patch a
// corrupt read with.
func actingAt(streak int) kernel.Time {
	return kernel.Time(max(streak-1, 1)) * kernel.Second
}

// TestCrossingEvaluationRunsOnce: the evaluation that completes a
// violation streak runs the program once, so one corrupt feature read is
// one fault whatever the streak — the same loads, steps, features and
// actions as an evaluation that acts without hysteresis, and not enough
// on its own to trip a two-fault breaker.
func TestCrossingEvaluationRunsOnce(t *testing.T) {
	const src = `
guardrail flagger {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(err_rate) <= 0.1 },
    action: { SAVE(flag, 1) }
}`
	// acting is what the acting evaluation costs and leaves behind.
	type acting struct {
		loads, steps      uint64
		features, actions string
		loadFaults, traps uint64
		faultRecords      int
		quarantines       uint64
		flagSaved         bool
	}
	observe := func(t *testing.T, opts Options) acting {
		rt, k, st := newRT()
		sink := telemetry.New(nil, 1<<10)
		k.SetTelemetry(sink)
		rt.SetTelemetry(sink)
		st.SetTelemetry(sink)
		rec := provenance.New(64, 1)
		rt.SetProvenance(rec)
		st.Save("err_rate", 0.5)
		ms, err := rt.LoadSource(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		at := actingAt(opts.ViolationStreak)
		k.RunUntil(at - 500*kernel.Millisecond)
		st.Save("err_rate", math.NaN())
		loads := sink.Counters.StoreLoads.Value()
		k.RunUntil(at + 500*kernel.Millisecond)

		var a acting
		a.loads = sink.Counters.StoreLoads.Value() - loads
		for _, r := range rec.Records() {
			if r.Kind != provenance.KindViolation || r.At != int64(at) {
				continue
			}
			a.steps = r.Steps
			for _, f := range r.Features[:r.NFeatures] {
				a.features += fmt.Sprintf("%s=%g patched=%v ", f.Key, f.Value, f.Patched)
			}
			for _, x := range r.Actions[:r.NActions] {
				a.actions += x.Name + ":" + x.Outcome + " "
			}
		}
		s := ms[0].Stats()
		a.loadFaults, a.traps, a.quarantines = s.LoadFaults, s.Traps, s.Quarantines
		a.faultRecords = countKind(rec, provenance.KindFault)
		a.flagSaved = st.Load("flag") == 1
		return a
	}
	want := acting{
		loads: 1, features: "err_rate=0.5 patched=true ", actions: "flag:save ",
		loadFaults: 1, traps: 1, faultRecords: 1, flagSaved: true,
	}
	// The step count is the compiled program's violating path: take it
	// from the run without hysteresis.
	want.steps = observe(t, Options{ViolationStreak: 1}).steps
	for _, opts := range []Options{
		{ViolationStreak: 1},
		{ViolationStreak: 2},
		{ViolationStreak: 3},
		{ViolationStreak: 2, BreakerThreshold: 2},
	} {
		t.Run(fmt.Sprintf("streak=%d,breaker=%d", opts.ViolationStreak, opts.BreakerThreshold), func(t *testing.T) {
			if got := observe(t, opts); got != want {
				t.Errorf("acting evaluation:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// A helper trap on the acting evaluation is an ordinary monitor fault
// at every streak: reported once, counted once as a trap, recorded once
// in provenance, and the violation it abandoned is not counted — never
// a silently dropped action.
func TestActingEvaluationHelperTrapIsAFault(t *testing.T) {
	const src = `
guardrail reporter {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(err_rate) <= 0.1 },
    action: { REPORT(LOAD(err_rate)) }
}`
	for _, streak := range []int{1, 2} {
		t.Run(fmt.Sprintf("streak=%d", streak), func(t *testing.T) {
			rt, k, st := newRT()
			rec := provenance.New(64, 1)
			rt.SetProvenance(rec)
			st.Save("err_rate", 0.5)
			ms, err := rt.LoadSource(src, Options{ViolationStreak: streak})
			if err != nil {
				t.Fatal(err)
			}
			// The first evaluation that acts is the streak's last one.
			at := kernel.Time(streak-1) * kernel.Second
			rt.SetFaultInjector(&testInjector{
				helperFault: func(_ string, h vm.HelperID) error {
					if h == vm.HelperAction && k.Now() == at {
						return errors.New("helper table corrupted")
					}
					return nil
				},
			})
			k.RunUntil(at + 500*kernel.Millisecond)
			s := ms[0].Stats()
			if s.Traps != 1 || s.ActionsFired != 0 || s.Violations != uint64(streak-1) {
				t.Errorf("stats = %+v, want 1 trap, 0 actions fired, %d violations", s, streak-1)
			}
			if n := countNotes(rt, "monitor fault [helper-trap]"); n != 1 {
				t.Errorf("helper-trap notes = %d, want 1: %v", n, logNotes(rt))
			}
			if n := countNotes(rt, "action phase"); n != 0 {
				t.Errorf("action-phase notes = %d, want 0: %v", n, logNotes(rt))
			}
			if n := countKind(rec, provenance.KindFault); n != 1 {
				t.Errorf("fault records = %d, want 1", n)
			}
		})
	}
}

// The runtime must hold together under -race: one goroutine drives the
// kernel while others load/unload guardrails, toggle the monitor, read
// the logs, write the feature store, and schedule reads of the
// monitor's owned stats and state onto the loop.
func TestRuntimeRaceStress(t *testing.T) {
	rt, k, st := newRT()
	st.Save("false_submit_rate", 0.01)
	st.Save("ml_enabled", 1)
	ms, err := rt.LoadSource(listing2, Options{
		BreakerThreshold: 3,
		Cooldown:         50 * kernel.Millisecond,
		RetryMax:         1,
		RetryBase:        kernel.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	rt.SetFaultInjector(&testInjector{
		evalFault: func(string) error {
			if k.Now()%(7*kernel.Second) < kernel.Second {
				return errors.New("periodic crash")
			}
			return nil
		},
	})

	done := make(chan struct{})
	var onLoop atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				i++
				name := fmt.Sprintf("stress-%d-%d", g, i)
				src := fmt.Sprintf(`
guardrail %s {
    trigger: { TIMER(0, 1e8) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { REPORT(1) }
}`, name)
				if _, err := rt.LoadSource(src, Options{}); err == nil {
					_ = rt.Unload(name)
				}
				// Bounded, so that the producers cannot outrun the loop.
				if i <= 500 {
					k.At(k.Now(), func() {
						_ = m.Stats()
						_ = stateOf(m)
						onLoop.Add(1)
					})
				}
				m.ForceShadow(i%2 == 0)
				_ = rt.Log.Recent(4)
				_ = rt.DeadLetter.Total()
				st.Save("false_submit_rate", float64(i%10)/100)
				_ = rt.Monitors()
			}
		}(g)
	}
	k.RunUntil(30 * kernel.Second)
	close(done)
	wg.Wait()
	if m.Stats().Evals == 0 {
		t.Fatal("monitor never evaluated")
	}
	t.Logf("%d reads ran on the loop", onLoop.Load())
}

// TestTogglesFromAnotherGoroutineApplyAtTheNextEvaluation: each operator
// toggle, made on another goroutine, is what the owner's very next
// evaluation obeys — including the act gate's index restart, which the
// owner performs when it first sees the new gate.
func TestTogglesFromAnotherGoroutineApplyAtTheNextEvaluation(t *testing.T) {
	rt, k, st := newRT()
	st.Save("err_rate", 0.5) // violates every evaluation
	ms, err := rt.LoadSource(`
guardrail flip {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	// elsewhere runs f on another goroutine and waits for it.
	elsewhere := func(f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		<-done
	}
	// fire evaluates once on this goroutine, the owner, and reports
	// whether the evaluation counted and whether it acted.
	fire := func() (evaluated, acted bool) {
		st.Save("ml_enabled", 1)
		before := m.Stats().Evals
		k.Fire("io_submit", 1)
		return m.Stats().Evals == before+1, st.Load("ml_enabled") == 0
	}
	for _, step := range []struct {
		what             string
		toggle           func()
		evaluated, acted bool
	}{
		{"live", func() {}, true, true},
		{"ForceShadow(true)", func() { m.ForceShadow(true) }, true, false},
		{"SetEnabled(false)", func() { m.SetEnabled(false) }, false, false},
		{"SetEnabled(true)", func() { m.SetEnabled(true) }, true, false},
		{"ForceShadow(false)", func() { m.ForceShadow(false) }, true, true},
		// The gate admits odd indices. The index restarts at the
		// install, so the next evaluation is index 0 and does not act.
		{"SetActGate(odd)", func() { m.SetActGate(func(n uint64) bool { return n%2 == 1 }) }, true, false},
		{"no toggle (index 1)", func() {}, true, true},
		{"no toggle (index 2)", func() {}, true, false},
		{"SetActGate(nil)", func() { m.SetActGate(nil) }, true, true},
	} {
		elsewhere(step.toggle)
		if evaluated, acted := fire(); evaluated != step.evaluated || acted != step.acted {
			t.Errorf("after %s: evaluated=%v acted=%v, want %v %v", step.what, evaluated, acted, step.evaluated, step.acted)
		}
	}
}

// TestEvaluationPanicDoesNotWedgeTheMonitor: an evaluation that panics
// (here inside the fault injector) and is recovered by the kernel's hook
// panic handler must leave the monitor free to evaluate on the next fire.
func TestEvaluationPanicDoesNotWedgeTheMonitor(t *testing.T) {
	rt, k, st := newRT()
	st.Save("err_rate", 0.001)
	ms, err := rt.LoadSource(`
guardrail steady {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.SetHookPanicHandler(func(string, any) {})
	panicked := false
	rt.SetFaultInjector(&testInjector{evalFault: func(string) error {
		if !panicked {
			panicked = true
			panic("injector bug")
		}
		return nil
	}})
	k.Fire("io_submit", 1)
	if got := k.HookPanics(); got != 1 {
		t.Fatalf("hook panics = %d, want 1", got)
	}
	k.Fire("io_submit", 2)
	if s := ms[0].Stats(); s.Evals != 1 || s.Traps != 0 {
		t.Errorf("after the recovered panic: stats %+v; want one clean evaluation", s)
	}
}
