package modelcheck

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
)

// deployment compiles src into a single-file deployment.
func deployment(t testing.TB, src string) *interfere.Deployment {
	t.Helper()
	f, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Check(f); err != nil {
		t.Fatal(err)
	}
	cs, err := compile.File(f)
	if err != nil {
		t.Fatal(err)
	}
	return &interfere.Deployment{Monitors: cs, Features: f.Features}
}

// props parses manifest-style property strings.
func props(t testing.TB, ss ...string) []*spec.PropertyDecl {
	t.Helper()
	out := make([]*spec.PropertyDecl, len(ss))
	for i, s := range ss {
		d, err := spec.ParseProperty(s)
		if err != nil {
			t.Fatalf("property %q: %v", s, err)
		}
		out[i] = d
	}
	return out
}

// escalationSrc is the well-behaved two-stage escalation ladder: a
// persistently bad error signal raises alert_level, and a raised alert
// level quarantines. Both SAVEs are idempotent, so the deployment
// converges.
const escalationSrc = `
feature bad_tenant_err range(0.8, 1)

guardrail escalate-one {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(bad_tenant_err) < 0.5 },
    action: { SAVE(alert_level, 1) }
}

guardrail escalate-two {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(alert_level) < 1 || LOAD(bad_tenant_err) < 0.5 },
    action: { SAVE(quarantined, 1), DEPRIORITIZE(bad_tenant, -10) }
}`

// oscSrc seeds a non-convergent SAVE oscillation: osc-up forces mode
// to 1 whenever it is 0, osc-down forces it back to 0 whenever it is
// 1, on offset timers that never coincide.
const oscSrc = `
guardrail osc-up {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(mode) >= 1 },
    action: { SAVE(mode, 1) }
}

guardrail osc-down {
    trigger: { TIMER(500, 1000) },
    rule: { LOAD(mode) < 1 },
    action: { SAVE(mode, 0) }
}`

func TestEscalationProvesAlwaysAndEventually(t *testing.T) {
	dep := deployment(t, escalationSrc)
	rep := Check(dep, Config{Properties: props(t,
		"always LOAD(quarantined) <= 1",
		"eventually LOAD(quarantined) == 1 within 2",
	)})
	if len(rep.Properties) != 2 {
		t.Fatalf("got %d property results", len(rep.Properties))
	}
	for _, p := range rep.Properties {
		if p.Status != StatusProved {
			t.Errorf("%s: %s (%s), want PROVED", p.Property, p.Status, p.Reason)
		}
		if p.Certificate == nil {
			t.Errorf("%s: proved without a certificate", p.Property)
		}
	}
	if !rep.Clean() {
		t.Errorf("clean escalation not clean: %+v", rep.Diagnostics)
	}
	if rep.Truncated {
		t.Errorf("tiny deployment truncated: %s", rep.TruncationReason)
	}
	if rep.HyperperiodNs != 1000 {
		t.Errorf("hyperperiod = %d, want 1000", rep.HyperperiodNs)
	}
}

func TestEscalationRefutesTooTightBound(t *testing.T) {
	dep := deployment(t, escalationSrc)
	// quarantined==2 is unreachable: always-proof must not exist for
	// its negation, and eventually==2 must be refuted.
	rep := Check(dep, Config{
		Properties: props(t, "eventually LOAD(quarantined) == 2 within 8"),
		Witness:    true,
	})
	p := rep.Properties[0]
	if p.Status != StatusRefuted {
		t.Fatalf("unreachable target: %s (%s), want REFUTED", p.Status, p.Reason)
	}
	d := findCode(t, rep, CodeLiveness)
	if len(d.Trace) == 0 {
		t.Error("GM002 without abstract trace")
	}
	if d.Status != "CONFIRMED" {
		t.Errorf("GM002 status = %q, want CONFIRMED (deployment is deterministic)", d.Status)
	}
}

// TestOscillationReportedOncePerWriterPair: a one-way latch driven by
// an unconstrained signal splits the oscSrc cycle into two strongly
// connected components (latched = 0 and latched = 1). The mode
// oscillation lives in both; it is one finding, not one per component.
// The latch's timer never ticks with oscSrc's, so its rule also reads
// mode (never above 1) to share a component with them.
func TestOscillationReportedOncePerWriterPair(t *testing.T) {
	dep := deployment(t, oscSrc+`
feature sig range(0, 1)

guardrail latch {
    trigger: { TIMER(250, 1000) },
    rule: { LOAD(sig) < 0.5 || LOAD(latched) >= 1 || LOAD(mode) > 1 },
    action: { SAVE(latched, 1) }
}`)
	m := buildSystem(dep, Config{}).models[0] // the latch reads mode: one component
	m.explore()
	cyclic := 0
	for _, comp := range sccsOf(m.adj) {
		if len(comp) > 1 {
			cyclic++
		}
	}
	if cyclic < 2 {
		t.Fatalf("fixture has %d cyclic SCCs, want >= 2", cyclic)
	}

	rep := Check(dep, Config{})
	n := 0
	for _, d := range rep.Diagnostics {
		if d.Code == CodeOscillation {
			n++
			if !strings.Contains(d.Message, `"mode"`) {
				t.Errorf("unexpected GM003: %s", d.Message)
			}
		}
	}
	if n != 1 {
		t.Errorf("mode oscillation reported %d times across %d SCCs, want once:\n%+v", n, cyclic, rep.Diagnostics)
	}
}

func TestOscillationRefutedWithConfirmedWitness(t *testing.T) {
	dep := deployment(t, oscSrc)
	rep := Check(dep, Config{
		Properties: props(t, "always LOAD(mode) <= 0", "eventually LOAD(mode) >= 2 within 6"),
		Witness:    true,
	})

	d := findCode(t, rep, CodeOscillation)
	if !strings.Contains(d.Message, "mode") {
		t.Errorf("GM003 message misses key: %s", d.Message)
	}
	if d.Guardrail != "osc-down" && d.Guardrail != "osc-up" {
		t.Errorf("GM003 anchored to %q", d.Guardrail)
	}
	if len(d.Trace) < 2 {
		t.Errorf("GM003 trace too short: %v", d.Trace)
	}
	if d.Status != "CONFIRMED" {
		t.Errorf("GM003 status = %q, want CONFIRMED; witness %v", d.Status, d.Witness)
	}
	if d.Status == "CONFIRMED" && d.Witness == nil {
		t.Error("CONFIRMED without witness")
	}

	// The safety property is violated the moment osc-up raises mode.
	if rep.Properties[0].Status != StatusRefuted {
		t.Errorf("always mode<=0: %s, want REFUTED", rep.Properties[0].Status)
	}
	sd := findCode(t, rep, CodeSafety)
	if sd.Status != "CONFIRMED" {
		t.Errorf("GM001 status = %q, want CONFIRMED", sd.Status)
	}
}

func TestVacuousPropertyFlagged(t *testing.T) {
	dep := deployment(t, escalationSrc)
	// no_such_key is never written and unbounded, so comparisons are
	// undecidable in every state.
	rep := Check(dep, Config{Properties: props(t, "always LOAD(no_such_key) <= 3")})
	if rep.Properties[0].Status != StatusInconclusive {
		t.Errorf("vacuous property: %s, want INCONCLUSIVE", rep.Properties[0].Status)
	}
	findCode(t, rep, CodeVacuous)
}

// TestVacuityNeedsExhaustiveExploration: GM004 says the predicate is
// undecidable in every reachable state, which a truncated exploration
// cannot know. A chain of latches on four hooks reaches p = 1, where
// "always p >= 0" is decided, only in its fifth state; cut off before
// it, the checker must still report the initial-state refutation rather
// than call the assert vacuous.
func TestVacuityNeedsExhaustiveExploration(t *testing.T) {
	const src = `
feature p range(-1, 1)

guardrail chain-a {
    trigger: { FUNCTION(h1) },
    rule: { LOAD(s1) >= 1 },
    action: { SAVE(s1, 1) }
}

guardrail chain-b {
    trigger: { FUNCTION(h2) },
    rule: { LOAD(s1) < 1 },
    action: { SAVE(s2, 1) }
}

guardrail chain-c {
    trigger: { FUNCTION(h3) },
    rule: { LOAD(s2) < 1 },
    action: { SAVE(s3, 1) }
}

guardrail chain-d {
    trigger: { FUNCTION(h4) },
    rule: { LOAD(s3) < 1 },
    action: { SAVE(p, 1) }
}`
	for _, tc := range []struct {
		maxStates int
		states    int
		truncated bool
	}{{0, 5, false}, {3, 3, true}} {
		rep := Check(deployment(t, src), Config{Properties: props(t, "always LOAD(p) >= 0"), MaxStates: tc.maxStates})
		if rep.States != tc.states || rep.Truncated != tc.truncated {
			t.Fatalf("MaxStates %d: %d state(s), truncated=%v; want %d, %v", tc.maxStates, rep.States, rep.Truncated, tc.states, tc.truncated)
		}
		if got := rep.Properties[0].Status; got != StatusRefuted {
			t.Errorf("MaxStates %d: %s (%s), want REFUTED", tc.maxStates, got, rep.Properties[0].Reason)
		}
		for _, d := range rep.Diagnostics {
			if d.Code == CodeVacuous {
				t.Errorf("MaxStates %d: %s", tc.maxStates, d.Message)
			}
		}
		if d := findCode(t, rep, CodeSafety); !strings.Contains(d.Message, "may fail after 0 step(s)") {
			t.Errorf("MaxStates %d: GM001 %q, want the initial state's refutation", tc.maxStates, d.Message)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	dep := deployment(t, oscSrc)
	cfg := Config{
		Properties: props(t, "always LOAD(mode) <= 0", "eventually LOAD(mode) >= 2 within 4"),
		Witness:    true,
	}
	first, err := json.Marshal(Check(dep, cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := json.Marshal(Check(deployment(t, oscSrc), cfg))
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("run %d differs:\n%s\n---\n%s", i, first, again)
		}
	}
}

func TestStateBoundTruncationReported(t *testing.T) {
	// An unbounded counter generates a fresh state per step until
	// widening or the state bound stops it; with WidenAfter above the
	// state bound, the bound must be hit and reported.
	dep := deployment(t, `
guardrail counter {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(n) < 0 },
    action: { SAVE(n, LOAD(n) + 1) }
}`)
	rep := Check(dep, Config{
		Properties: props(t, "always LOAD(n) >= 0"),
		MaxStates:  4,
		WidenAfter: 100,
	})
	if !rep.Truncated || rep.TruncationReason != "state bound" {
		t.Fatalf("truncated=%v reason=%q, want state bound", rep.Truncated, rep.TruncationReason)
	}
	// A proof must be withheld under truncation.
	if rep.Properties[0].Status == StatusProved {
		t.Error("property proved despite truncated exploration")
	}
}

func TestWideningConvergesCounter(t *testing.T) {
	dep := deployment(t, `
guardrail counter {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(n) < 0 },
    action: { SAVE(n, LOAD(n) + 1) }
}`)
	rep := Check(dep, Config{Properties: props(t, "always LOAD(n) >= 0")})
	if rep.Truncated {
		t.Fatalf("widening failed to converge: %s (%d states)", rep.TruncationReason, rep.States)
	}
	if len(rep.WidenedKeys) != 1 || rep.WidenedKeys[0] != "n" {
		t.Errorf("widened keys = %v, want [n]", rep.WidenedKeys)
	}
	if got := rep.Properties[0].Status; got != StatusProved {
		t.Errorf("always n>=0 over widened counter: %s (%s), want PROVED", got, rep.Properties[0].Reason)
	}
}

func TestShadowMonitorsExcluded(t *testing.T) {
	dep := deployment(t, oscSrc)
	rep := Check(dep, Config{Shadow: []string{"osc-down"}})
	if len(rep.Diagnostics) != 0 {
		t.Errorf("shadowing osc-down should break the oscillation: %+v", rep.Diagnostics)
	}
	if len(rep.Shadow) != 1 || rep.Shadow[0] != "osc-down" {
		t.Errorf("shadow list = %v", rep.Shadow)
	}
}

func TestConservativeScheduleFallback(t *testing.T) {
	// Coprime second-scale intervals overflow the hyperperiod; the
	// model must fall back to per-timer transitions, still analyzable.
	dep := deployment(t, `
guardrail slow-a {
    trigger: { TIMER(0, 1000000007000000000) },
    rule: { LOAD(x) < 0 },
    action: { SAVE(x, 1) }
}
guardrail slow-b {
    trigger: { TIMER(0, 999999999900000007) },
    rule: { LOAD(x) < 0 },
    action: { SAVE(x, 1) }
}`)
	rep := Check(dep, Config{Properties: props(t, "always LOAD(x) <= 1")})
	if !rep.ConservativeSchedule {
		t.Fatal("overflowing hyperperiod not reported as conservative")
	}
	if rep.HyperperiodNs != 0 {
		t.Errorf("hyperperiod = %d under conservative fallback", rep.HyperperiodNs)
	}
	if rep.Properties[0].Status != StatusProved {
		t.Errorf("always x<=1: %s (%s)", rep.Properties[0].Status, rep.Properties[0].Reason)
	}
}

func findCode(t *testing.T, rep *Report, code string) interfere.Diagnostic {
	t.Helper()
	for _, d := range rep.Diagnostics {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s in %+v", code, rep.Diagnostics)
	return interfere.Diagnostic{}
}

// TestFirstFeatureDeclarationWins: when two files of a deployment
// declare the same feature, the model checker reads the first range,
// the rule interfere.Analyze and deploy.Deployment.Features state. (It
// used to read the last, so the two analyses judged one deployment
// under different input ranges.)
func TestFirstFeatureDeclarationWins(t *testing.T) {
	dep := deployment(t, `
feature load range(0, 1)

guardrail shed {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(load) <= 1 },
    action: { SAVE(shedding, 1) }
}`)
	dep.Features = append(dep.Features, &spec.FeatureDecl{Key: "load", Lo: 5, Hi: 9})
	rep := Check(dep, Config{Properties: props(t, "always LOAD(load) <= 1")})
	if len(rep.Properties) != 1 || rep.Properties[0].Status != StatusProved {
		t.Fatalf("property judged under the later declaration's range: %+v", rep.Properties)
	}
}

// timerLadders is n copies of the escalation ladder, copy i on
// TIMER(start(i), 8000) with its own keys, and the two safety
// properties of each copy. The second rung comes first, so a tick
// raises the alert and the next one quarantines: three states a copy.
func timerLadders(t *testing.T, n int, start func(i int) int) (*interfere.Deployment, Config) {
	var b strings.Builder
	var ps []string
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
feature err_%[1]d range(0.8, 1)

guardrail lad%[1]d-two {
    trigger: { TIMER(%[2]d, 8000) },
    rule: { LOAD(alert_%[1]d) < 1 || LOAD(err_%[1]d) < 0.5 },
    action: { SAVE(quarantined_%[1]d, 1) }
}

guardrail lad%[1]d-one {
    trigger: { TIMER(%[2]d, 8000) },
    rule: { LOAD(err_%[1]d) < 0.5 },
    action: { SAVE(alert_%[1]d, 1) }
}
`, i, start(i))
		ps = append(ps, fmt.Sprintf("always LOAD(alert_%d) <= 1", i), fmt.Sprintf("always LOAD(quarantined_%d) <= 1", i))
	}
	return deployment(t, b.String()), Config{Properties: props(t, ps...)}
}

// TestOffsetTimerLaddersSplit: twelve ladders on timers that never tick
// together (starts 0, 500, …, 5 500 ns, one period) are twelve
// components, three states each with the shared initial state counted
// once, and every property is proved. They were one component once,
// the product of twelve ladders, which truncated at 2 048 states and
// proved none. On one shared timer the ladders step in lockstep: one
// component of three states.
func TestOffsetTimerLaddersSplit(t *testing.T) {
	for _, c := range []struct {
		start              func(int) int
		components, states int
	}{
		{func(i int) int { return 500 * i }, 12, 25},
		{func(int) int { return 0 }, 1, 3},
	} {
		dep, cfg := timerLadders(t, 12, c.start)
		rep := Check(dep, cfg)
		proved := 0
		for _, p := range rep.Properties {
			if p.Status == StatusProved {
				proved++
			}
		}
		if got := len(dep.Components()); got != c.components || rep.Truncated || rep.States != c.states || proved != 24 {
			t.Errorf("ladders from TIMER(%d, 8000): %d components, %d states (truncated %v), %d of 24 proved; want %d components, %d states, untruncated, 24 proved",
				c.start(1), got, rep.States, rep.Truncated, proved, c.components, c.states)
		}
	}
}
