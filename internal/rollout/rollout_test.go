package rollout

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/telemetry"
)

// latGuard is the incumbent: alert when the latency moving average
// exceeds 0.5 (violated on ~10% of the synthetic workload below).
const latGuard = `
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.5 },
    action: { SAVE(alert, 1) }
}`

func mustCompile(t *testing.T, src string) []*compile.Compiled {
	t.Helper()
	cs, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// harness is a runtime with telemetry, an incumbent deployment, and a
// deterministic workload: io_done fires every 1ms with lat_ma cycling
// 0.10, 0.15, ... 0.55 (one violation of the 0.5 threshold per ten
// firings).
func harness(t *testing.T) (*Controller, *monitor.Runtime, *kernel.Kernel, *featurestore.Store) {
	t.Helper()
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 1<<15)
	rt.SetTelemetry(sink)
	k.SetTelemetry(sink)

	inc := mustCompile(t, latGuard)
	if _, err := rt.Load(inc[0], monitor.Options{}); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(rt)
	ctl.Adopt(inc)

	i := 0
	k.Every(0, kernel.Millisecond, 0, func(now kernel.Time) {
		st.Save("lat_ma", 0.10+0.05*float64(i%10))
		k.Fire("io_done", 0)
		i++
	})
	return ctl, rt, k, st
}

func fastCfg() Config {
	return Config{
		ShadowWindow: 200 * kernel.Millisecond,
		CanaryWindow: 400 * kernel.Millisecond,
	}
}

// --- semantic diff ------------------------------------------------------

func TestCompareClassification(t *testing.T) {
	old := mustCompile(t, `
guardrail keep { trigger: { TIMER(0, 1e9) }, rule: { LOAD(a) <= 1 }, action: { SAVE(x, 1) } }
guardrail tune { trigger: { TIMER(0, 1e9) }, rule: { LOAD(b) <= 0.05 }, action: { SAVE(y, 1) } }
guardrail shape { trigger: { TIMER(0, 1e9) }, rule: { LOAD(c) <= 2 }, action: { SAVE(z, 1) } }
guardrail gone { trigger: { TIMER(0, 1e9) }, rule: { LOAD(d) <= 3 }, action: { SAVE(w, 1) } }
`)
	new := mustCompile(t, `
guardrail keep { trigger: { TIMER(0, 1e9) }, rule: { LOAD(a) <= 1 }, action: { SAVE(x, 1) } }
guardrail tune { trigger: { TIMER(0, 1e9) }, rule: { LOAD(b) <= 0.02 }, action: { SAVE(y, 1) } }
guardrail shape { trigger: { TIMER(0, 1e9) }, rule: { LOAD(c) + LOAD(cc) <= 2 }, action: { SAVE(z, 1) } }
guardrail fresh { trigger: { TIMER(0, 1e9) }, rule: { LOAD(e) <= 4 }, action: { SAVE(v, 1) } }
`)
	d := Compare(old, new)
	want := map[string]ChangeKind{
		"keep": Unchanged, "tune": Retuned, "shape": Modified,
		"gone": Removed, "fresh": Added,
	}
	if len(d.Changes) != len(want) {
		t.Fatalf("got %d entries, want %d: %v", len(d.Changes), len(want), d.Changes)
	}
	for name, kind := range want {
		if got := d.Change(name).Kind; got != kind {
			t.Errorf("%s: kind %s, want %s", name, got, kind)
		}
	}
	tune := d.Change("tune")
	if len(tune.Details) == 0 || !strings.Contains(tune.Details[0], "0.05 -> 0.02") {
		t.Errorf("tune details missing threshold delta: %v", tune.Details)
	}
	if !tune.Rules || tune.Triggers || tune.Actions {
		t.Errorf("tune sections: triggers=%v rules=%v actions=%v", tune.Triggers, tune.Rules, tune.Actions)
	}
	if d.Empty() {
		t.Error("diff should not be empty")
	}
	if got := Compare(old, old); !got.Empty() {
		t.Errorf("self-diff not empty: %v", got.Changed())
	}
}

func TestCompareDetectsTriggerAndActionChanges(t *testing.T) {
	old := mustCompile(t, `
guardrail g { trigger: { TIMER(0, 1e9) }, rule: { LOAD(a) <= 1 }, action: { SAVE(x, 1) } }`)
	retrig := mustCompile(t, `
guardrail g { trigger: { FUNCTION(io_done) }, rule: { LOAD(a) <= 1 }, action: { SAVE(x, 1) } }`)
	reval := mustCompile(t, `
guardrail g { trigger: { TIMER(0, 1e9) }, rule: { LOAD(a) <= 1 }, action: { SAVE(x, 0) } }`)

	if ch := Compare(old, retrig).Change("g"); ch.Kind != Modified || !ch.Triggers {
		t.Errorf("trigger change: %+v", ch)
	}
	// Only the SAVE value constant changed: a retune, not a reshape.
	if ch := Compare(old, reval).Change("g"); ch.Kind != Retuned || !ch.Actions {
		t.Errorf("action value retune: %+v", ch)
	}
}

// --- scoped interference ------------------------------------------------

func TestScopeClosure(t *testing.T) {
	cs := mustCompile(t, `
guardrail changed { trigger: { TIMER(0, 1e9) }, rule: { LOAD(a) <= 1 }, action: { SAVE(shared, 1) } }
guardrail coupled { trigger: { TIMER(0, 1e9) }, rule: { LOAD(shared) <= 1 }, action: { SAVE(other, 1) } }
guardrail isolated { trigger: { FUNCTION(net_rx) }, rule: { LOAD(q) <= 1 }, action: { SAVE(r, 1) } }
`)
	d := &Diff{Changes: []Change{
		{Name: "changed", Kind: Retuned},
		{Name: "coupled", Kind: Unchanged},
		{Name: "isolated", Kind: Unchanged},
	}}
	scoped, names := Scope(d, deployOf(cs))
	if len(names) != 2 || names[0] != "changed" || names[1] != "coupled" {
		t.Fatalf("scope = %v, want [changed coupled]", names)
	}
	if len(scoped.Monitors) != 2 {
		t.Fatalf("scoped monitors = %d", len(scoped.Monitors))
	}
}

// deployOf wraps compiled guardrails in an analysis deployment.
func deployOf(cs []*compile.Compiled) *interfere.Deployment {
	return &interfere.Deployment{Monitors: cs}
}

func TestScopeSharedSiteCouples(t *testing.T) {
	cs := mustCompile(t, `
guardrail changed { trigger: { FUNCTION(io_done) }, rule: { LOAD(a) <= 1 }, action: { SAVE(x, 1) } }
guardrail samesite { trigger: { FUNCTION(io_done) }, rule: { LOAD(b) <= 1 }, action: { SAVE(y, 1) } }
guardrail othersite { trigger: { FUNCTION(net_rx) }, rule: { LOAD(c) <= 1 }, action: { SAVE(z, 1) } }
`)
	d := &Diff{Changes: []Change{
		{Name: "changed", Kind: Modified},
		{Name: "samesite", Kind: Unchanged},
		{Name: "othersite", Kind: Unchanged},
	}}
	_, names := Scope(d, deployOf(cs))
	if len(names) != 2 || names[0] != "changed" || names[1] != "samesite" {
		t.Fatalf("scope = %v, want [changed samesite]", names)
	}
}

// --- staged rollout -----------------------------------------------------

func TestHealthyCanaryPromotes(t *testing.T) {
	ctl, rt, k, _ := harness(t)
	// Loosen the threshold slightly: fewer violations than the incumbent.
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	if err := ctl.Begin(cand, fastCfg()); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Phase(); got != PhaseAdmitting {
		t.Fatalf("phase after Begin = %s", got)
	}
	k.RunUntil(2 * kernel.Second)

	if got := ctl.Phase(); got != PhasePromoted {
		t.Fatalf("phase = %s (reason %q), want promoted", got, ctl.Reason())
	}
	if got := ctl.FleetGeneration(); got != 2 {
		t.Errorf("fleet generation = %d, want 2", got)
	}
	if got := k.Generation(); got != 2 {
		t.Errorf("kernel generation = %d, want 2", got)
	}
	m := rt.Monitor("lat-guard")
	if m == nil {
		t.Fatal("lat-guard not loaded after promotion")
	}
	if got := m.Generation(); got != 2 {
		t.Errorf("monitor generation = %d, want 2", got)
	}
	// Hot-swap continuity: the promoted monitor carries the incumbent's
	// counters forward and adds its own, so every io_done fire — each
	// evaluates exactly one generation of lat-guard — is counted once.
	if got, want := m.Stats().Evals, k.FireCount("io_done"); got != want {
		t.Errorf("lat-guard counted %d evaluations over %d io_done fires across the promotion", got, want)
	}
	if tm := rt.Monitor(VersionedName("lat-guard", 2)); tm != nil {
		t.Error("trial monitor still loaded after promotion")
	}
	if len(rt.Monitors()) != 1 {
		t.Errorf("monitors after promotion = %d, want 1", len(rt.Monitors()))
	}
	if got := rt.Telemetry().Counters.RolloutPromotions.Value(); got != 1 {
		t.Errorf("rollout_promotions_total = %d, want 1", got)
	}
}

func TestViolationStormRollsBackInShadow(t *testing.T) {
	ctl, rt, k, st := harness(t)
	// A broken retune that alerts on nearly every sample — and would
	// write a different key if it ever acted.
	bad := mustCompile(t, `
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.01 },
    action: { SAVE(alert_bad, 1) }
}`)
	if err := ctl.Begin(bad, fastCfg()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2 * kernel.Second)

	if got := ctl.Phase(); got != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", got)
	}
	if !strings.Contains(ctl.Reason(), "violation rate") {
		t.Errorf("reason = %q, want violation-rate gate", ctl.Reason())
	}
	if got := ctl.FleetGeneration(); got != 1 {
		t.Errorf("fleet generation = %d, want 1", got)
	}
	// The candidate was caught in shadow: it never acted.
	if st.Load("alert_bad") != 0 {
		t.Error("bad candidate's action leaked to the feature store")
	}
	// Incumbent back at full traffic, trial copy gone.
	if len(rt.Monitors()) != 1 || rt.Monitor("lat-guard") == nil {
		t.Fatalf("monitors after rollback: %v", rt.Monitors())
	}
	if got := rt.Telemetry().Counters.RolloutRollbacks.Value(); got != 1 {
		t.Errorf("rollout_rollbacks_total = %d, want 1", got)
	}
	// The incumbent keeps acting after the rollback clears its gate.
	st.Save("alert", 0)
	k.RunUntil(4 * kernel.Second)
	if st.Load("alert") != 1 {
		t.Error("incumbent not acting after rollback")
	}
}

func TestFailingActionRollsBackInCanary(t *testing.T) {
	ctl, rt, k, _ := harness(t)
	// Same rule as the incumbent (identical violation rate — passes the
	// shadow gate) but its corrective action targets a task group that
	// was never registered, so every canary dispatch fails.
	bad := mustCompile(t, `
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.5 },
    action: { DEPRIORITIZE(batch_jobs) }
}`)
	cfg := fastCfg()
	// A 2/3 canary share: the workload violates every 10th evaluation,
	// and 10 mod 3 walks every residue class, so the candidate is
	// guaranteed violation traffic whatever its load alignment.
	cfg.CanaryNum, cfg.CanaryDen = 2, 3
	if err := ctl.Begin(bad, cfg); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(3 * kernel.Second)

	if got := ctl.Phase(); got != PhaseRolledBack {
		t.Fatalf("phase = %s (reason %q), want rolled_back", got, ctl.Reason())
	}
	if !strings.Contains(ctl.Reason(), "action failure rate") {
		t.Errorf("reason = %q, want action-failure gate", ctl.Reason())
	}
	// The regression was caught at canary share, before fleet-wide
	// exposure: generation never advanced.
	if got := ctl.FleetGeneration(); got != 1 {
		t.Errorf("fleet generation = %d, want 1", got)
	}
	var sawCanary bool
	for _, rec := range ctl.History() {
		if rec.Event == "phase:canary" {
			sawCanary = true
		}
	}
	if !sawCanary {
		t.Error("rollout never reached canary phase")
	}
	if len(rt.Monitors()) != 1 {
		t.Errorf("monitors after rollback = %d, want 1", len(rt.Monitors()))
	}
}

func TestTransientAdmissionRetries(t *testing.T) {
	ctl, rt, k, _ := harness(t)
	failures := 2
	ctl.SetAdmitFunc(func(budget int, overrides map[string]int, loads []kernel.HookLoad) error {
		if failures > 0 {
			failures--
			return errors.New("admission RPC timed out")
		}
		return nil
	})
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	if err := ctl.Begin(cand, fastCfg()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(3 * kernel.Second)

	if got := ctl.Phase(); got != PhasePromoted {
		t.Fatalf("phase = %s (reason %q), want promoted after transient retries", got, ctl.Reason())
	}
	if got := rt.Telemetry().Counters.RolloutAdmitRetries.Value(); got != 2 {
		t.Errorf("rollout_admission_retries_total = %d, want 2", got)
	}
}

func TestPermanentAdmissionFailsStatic(t *testing.T) {
	ctl, rt, k, _ := harness(t)
	ctl.SetAdmitFunc(func(budget int, overrides map[string]int, loads []kernel.HookLoad) error {
		return &kernel.AdmissionError{Sites: []kernel.OverloadedSite{
			{Site: "io_done", Budget: 1, Total: 99},
		}}
	})
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	if err := ctl.Begin(cand, fastCfg()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(kernel.Second)

	if got := ctl.Phase(); got != PhaseFailed {
		t.Fatalf("phase = %s, want failed", got)
	}
	if !strings.Contains(ctl.Reason(), "admission rejected") {
		t.Errorf("reason = %q", ctl.Reason())
	}
	// Fail static: no candidate ever loaded, incumbent untouched.
	if len(rt.Monitors()) != 1 || rt.Monitor("lat-guard") == nil {
		t.Fatalf("monitors after permanent refusal: %v", rt.Monitors())
	}
}

func TestExhaustedTransientRetriesFailStatic(t *testing.T) {
	ctl, _, k, _ := harness(t)
	ctl.SetAdmitFunc(func(int, map[string]int, []kernel.HookLoad) error {
		return errors.New("admission RPC timed out")
	})
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	if err := ctl.Begin(cand, fastCfg()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(kernel.Second)
	if got := ctl.Phase(); got != PhaseFailed {
		t.Fatalf("phase = %s, want failed after exhausted retries", got)
	}
}

func TestRefusedByScopedInterference(t *testing.T) {
	ctl, rt, k, _ := harness(t)
	// The candidate generation adds a guardrail that co-fires with
	// lat-guard and SAVEs a provably different value to the same key:
	// a GI001 conflict the scoped analysis must catch before load.
	cand := mustCompile(t, latGuard+`
guardrail lat-mute {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.5 },
    action: { SAVE(alert, 0) }
}`)
	err := ctl.Begin(cand, fastCfg())
	var refused *RefusedError
	if !errors.As(err, &refused) {
		t.Fatalf("Begin = %v, want RefusedError", err)
	}
	if len(refused.Scope) == 0 {
		t.Error("refusal carries no scope")
	}
	if got := ctl.Phase(); got != PhaseFailed {
		t.Errorf("phase = %s, want failed", got)
	}
	if len(rt.Monitors()) != 1 {
		t.Errorf("monitors after refusal = %d, want 1 (nothing loaded)", len(rt.Monitors()))
	}
	_ = k
}

func TestBeginGuards(t *testing.T) {
	ctl, _, _, _ := harness(t)
	if err := ctl.Begin(mustCompile(t, latGuard), fastCfg()); !errors.Is(err, ErrNoChanges) {
		t.Errorf("identical deployment: err = %v, want ErrNoChanges", err)
	}
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	if err := ctl.Begin(cand, fastCfg()); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Begin(cand, fastCfg()); !errors.Is(err, ErrRolloutActive) {
		t.Errorf("concurrent Begin: err = %v, want ErrRolloutActive", err)
	}
}

// reportGuard mirrors latGuard but REPORTs instead of SAVEing, so every
// fired action leaves a log entry stamped with the triggering firing's
// simulated time and the acting monitor's (lane) name.
const reportGuard = `
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= %s },
    action: { REPORT(LOAD(lat_ma)) }
}`

// TestCanarySplitComplementary drives a canary whose incumbent has an
// evaluation history that is NOT a multiple of the canary denominator
// at gate-install time, and asserts every violating firing in the
// canary window produces exactly one action across the pair — no
// double corrective actions, no enforcement gaps.
func TestCanarySplitComplementary(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 1<<15)
	rt.SetTelemetry(sink)
	k.SetTelemetry(sink)
	inc := mustCompile(t, fmt.Sprintf(reportGuard, "0.5"))
	if _, err := rt.Load(inc[0], monitor.Options{}); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(rt)
	ctl.Adopt(inc)
	i := 0
	k.Every(0, kernel.Millisecond, 0, func(now kernel.Time) {
		st.Save("lat_ma", 0.10+0.05*float64(i%10))
		k.Fire("io_done", 0)
		i++
	})
	// Pre-roll ~253 incumbent evaluations (not a multiple of the canary
	// denominator): the split must not depend on how much history the
	// incumbent brings to the canary.
	k.RunUntil(253 * kernel.Millisecond)

	// A 0.54 retune has the identical violation profile on this workload
	// (only the 0.55 sample violates either threshold), so both lanes
	// see the same violation traffic and every gate passes.
	cand := mustCompile(t, fmt.Sprintf(reportGuard, "0.54"))
	cfg := fastCfg()
	// Denominator 3: the workload violates every 10th evaluation, and
	// 10 mod 3 walks every residue class, so any gate misalignment is
	// guaranteed to land doubles or gaps on violating firings (a
	// denominator sharing a factor with the violation period can leave
	// misalignment invisible to this check).
	cfg.CanaryNum, cfg.CanaryDen = 1, 3
	if err := ctl.Begin(cand, cfg); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2 * kernel.Second)
	if got := ctl.Phase(); got != PhasePromoted {
		t.Fatalf("phase = %s (reason %q), want promoted", got, ctl.Reason())
	}

	var canaryAt, promotedAt kernel.Time
	for _, rec := range ctl.History() {
		switch rec.Event {
		case "phase:canary":
			canaryAt = rec.At
		case "promoted":
			promotedAt = rec.At
		}
	}
	if canaryAt == 0 || promotedAt <= canaryAt {
		t.Fatalf("history missing canary window: canary=%v promoted=%v", canaryAt, promotedAt)
	}

	// Group canary-window reports by trigger time. The boundary
	// timestamps are excluded: the gate-install and promotion events run
	// at the same instant as a workload tick with unspecified ordering.
	perFiring := map[kernel.Time]int{}
	byLane := map[string]int{}
	for _, v := range rt.Log.Recent(4096) {
		if v.Time <= canaryAt || v.Time >= promotedAt || BaseName(v.Guardrail) != "lat-guard" {
			continue
		}
		perFiring[v.Time]++
		byLane[v.Guardrail]++
	}
	if len(perFiring) < 20 {
		t.Fatalf("only %d violating firings in the canary window, want >= 20", len(perFiring))
	}
	for at, n := range perFiring {
		if n != 1 {
			t.Fatalf("firing at %v acted %d times (lanes %v): canary split is not complementary", at, n, byLane)
		}
	}
}

func TestExplicitZeroGatesAreStrict(t *testing.T) {
	ctl, _, k, _ := harness(t)
	// A 0.45 retune violates on both the 0.50 and 0.55 samples — double
	// the incumbent's rate, a +0.1 delta that sails under the default
	// 0.25 gate but must trip an explicit zero-tolerance one.
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.45", 1))
	cfg := fastCfg()
	cfg.Gates = &Gates{}
	if err := ctl.Begin(cand, cfg); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2 * kernel.Second)
	if got := ctl.Phase(); got != PhaseRolledBack {
		t.Fatalf("phase = %s (reason %q), want rolled_back under zero-tolerance gates", got, ctl.Reason())
	}
	if !strings.Contains(ctl.Reason(), "violation rate") {
		t.Errorf("reason = %q, want violation-rate gate", ctl.Reason())
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"lat-guard":     "lat-guard",
		"lat-guard@v3":  "lat-guard",
		"lat-guard@v12": "lat-guard",
		"svc@v2-guard":  "svc@v2-guard", // "@v" inside a real name
		"guard@vnext":   "guard@vnext",  // non-digit suffix
		"guard@v":       "guard@v",      // empty suffix
		"@v3":           "@v3",          // nothing before the suffix
		"a@v1@v2":       "a@v1",
	}
	for in, want := range cases {
		if got := BaseName(in); got != want {
			t.Errorf("BaseName(%q) = %q, want %q", in, got, want)
		}
	}
}

// --- breakglass ---------------------------------------------------------

func TestBreakglassQuarantinesFleetWide(t *testing.T) {
	ctl, rt, k, st := harness(t)
	// Let the incumbent act once to prove it was live.
	k.RunUntil(100 * kernel.Millisecond)
	if st.Load("alert") != 1 {
		t.Fatal("incumbent never acted")
	}

	if err := ctl.Breakglass("lat-guard", false); err != nil {
		t.Fatal(err)
	}
	if !rt.Monitor("lat-guard").ForcedShadow() {
		t.Fatal("monitor not forced to shadow")
	}
	st.Save("alert", 0)
	before := rt.Monitor("lat-guard").Stats().Evals
	k.RunUntil(300 * kernel.Millisecond)
	if st.Load("alert") != 0 {
		t.Error("quarantined guardrail still acting")
	}
	if rt.Monitor("lat-guard").Stats().Evals == before {
		t.Error("shadow breakglass should keep evaluating")
	}
	if got := rt.Telemetry().Counters.Breakglass.Value(); got != 1 {
		t.Errorf("breakglass_total = %d, want 1", got)
	}

	// Release restores enforcement.
	if err := ctl.BreakglassRelease("lat-guard"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(600 * kernel.Millisecond)
	if st.Load("alert") != 1 {
		t.Error("released guardrail not acting again")
	}

	// Disable mode stops evaluation outright.
	if err := ctl.Breakglass("lat-guard", true); err != nil {
		t.Fatal(err)
	}
	evals := rt.Monitor("lat-guard").Stats().Evals
	k.RunUntil(900 * kernel.Millisecond)
	if rt.Monitor("lat-guard").Stats().Evals != evals {
		t.Error("disabled guardrail still evaluating")
	}

	if err := ctl.Breakglass("no-such-guardrail", false); err == nil {
		t.Error("breakglass on unknown guardrail should error")
	}
}

// TestBreakglassCoversTrialCopies engages breakglass mid-rollout and
// checks the versioned trial monitor is quarantined too.
func TestBreakglassCoversTrialCopies(t *testing.T) {
	ctl, rt, k, _ := harness(t)
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	cfg := fastCfg()
	cfg.ShadowWindow = 10 * kernel.Second // hold the rollout in shadow
	if err := ctl.Begin(cand, cfg); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(500 * kernel.Millisecond)
	if got := ctl.Phase(); got != PhaseShadow {
		t.Fatalf("phase = %s, want shadow", got)
	}
	if err := ctl.Breakglass("lat-guard", false); err != nil {
		t.Fatal(err)
	}
	trial := rt.Monitor(VersionedName("lat-guard", 2))
	if trial == nil {
		t.Fatal("trial monitor missing")
	}
	if !trial.ForcedShadow() || !rt.Monitor("lat-guard").ForcedShadow() {
		t.Error("breakglass missed the trial copy or the incumbent")
	}
}

// TestBreakglassSurvivesPromotion engages breakglass mid-rollout and
// lets the rollout promote: the promotion hot-swaps the quarantined
// incumbent, and the replacement must stay quarantined — an automated
// promotion may not lift what an operator engaged.
func TestBreakglassSurvivesPromotion(t *testing.T) {
	ctl, rt, k, st := harness(t)
	// A 0.52 retune violates identically to the incumbent (only the
	// 0.55 sample), so every gate passes even with both copies muted.
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.52", 1))
	if err := ctl.Begin(cand, fastCfg()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(100 * kernel.Millisecond)
	if got := ctl.Phase(); got != PhaseShadow {
		t.Fatalf("phase = %s, want shadow", got)
	}
	if err := ctl.Breakglass("lat-guard", false); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2 * kernel.Second)
	if got := ctl.Phase(); got != PhasePromoted {
		t.Fatalf("phase = %s (reason %q), want promoted", got, ctl.Reason())
	}
	m := rt.Monitor("lat-guard")
	if m == nil {
		t.Fatal("lat-guard missing after promotion")
	}
	if !m.ForcedShadow() {
		t.Fatal("promotion lifted the engaged breakglass quarantine")
	}
	st.Save("alert", 0)
	k.RunUntil(3 * kernel.Second)
	if st.Load("alert") != 0 {
		t.Error("quarantined guardrail acted after promotion")
	}
	// Release restores enforcement on the promoted generation.
	if err := ctl.BreakglassRelease("lat-guard"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(4 * kernel.Second)
	if st.Load("alert") != 1 {
		t.Error("released guardrail not acting on the promoted generation")
	}
}

// --- temporal property gate ---------------------------------------------

// TestRefusedByTemporalProperty: the operator declares that the fleet
// never raises an alert ("assert always LOAD(alert) <= 0"); a retuned
// candidate that can still drive alert to 1 is refuted by the bounded
// model checker and refused before anything loads.
func TestRefusedByTemporalProperty(t *testing.T) {
	ctl, rt, _, _ := harness(t)
	prop, err := spec.ParseProperty("always LOAD(alert) <= 0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Properties = []*spec.PropertyDecl{prop}
	cand := mustCompile(t, strings.Replace(latGuard, "0.5", "0.56", 1))
	err = ctl.Begin(cand, cfg)
	var refused *RefusedError
	if !errors.As(err, &refused) {
		t.Fatalf("Begin = %v, want RefusedError", err)
	}
	if refused.Temporal == nil {
		t.Fatal("refusal carries no temporal report")
	}
	found := false
	for _, d := range refused.Temporal.Diagnostics {
		if d.Code == modelcheck.CodeSafety {
			found = true
		}
	}
	if !found {
		t.Errorf("temporal report missing GM001: %+v", refused.Temporal.Diagnostics)
	}
	if got := ctl.Phase(); got != PhaseFailed {
		t.Errorf("phase = %s, want failed", got)
	}
	if !strings.Contains(ctl.Reason(), "temporal model checking") {
		t.Errorf("reason = %q", ctl.Reason())
	}
	if len(rt.Monitors()) != 1 {
		t.Errorf("monitors after refusal = %d, want 1 (nothing loaded)", len(rt.Monitors()))
	}

	// A property the candidate satisfies must not block the rollout.
	hold, err := spec.ParseProperty("always LOAD(alert) <= 1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Properties = []*spec.PropertyDecl{hold}
	if err := ctl.Begin(cand, cfg); err != nil {
		t.Fatalf("satisfied property blocked rollout: %v", err)
	}
}
