package interfere

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// implicates reports whether the diagnostic names the guardrail as
// primary or partner.
func implicates(d Diagnostic, name string) bool {
	return d.Guardrail == name || slices.Contains(d.Others, name)
}

// deployment compiles src and wraps it as a single-file deployment,
// carrying the file's feature declarations.
func deployment(t *testing.T, src string, budget int) *Deployment {
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
	return &Deployment{Monitors: cs, Features: f.Features, HookBudget: budget}
}

func codes(r *Report) map[string]int {
	out := map[string]int{}
	for _, d := range r.Diagnostics {
		out[d.Code]++
	}
	return out
}

func find(t *testing.T, r *Report, code string) Diagnostic {
	t.Helper()
	for _, d := range r.Diagnostics {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s diagnostic in %v", code, r.Diagnostics)
	return Diagnostic{}
}

func TestSaveConflictOnSharedHook(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail ml-on {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(lat_p99) <= 5e6 },
    action: { SAVE(ml_enabled, 1) }
}`, 0))
	d := find(t, r, CodeSaveConflict)
	if d.Severity != Warn || d.Site != "io_submit" {
		t.Errorf("GI001 = %+v, want warning on io_submit", d)
	}
	if !implicates(d, "ml-off") || !implicates(d, "ml-on") {
		t.Errorf("GI001 names %q + %v, want both guardrails", d.Guardrail, d.Others)
	}
	if r.Clean() {
		t.Error("conflicting deployment reported clean")
	}
}

func TestNoConflictOnDisjointHooks(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail ml-on {
    trigger: { FUNCTION(page_alloc) },
    rule: { LOAD(lat_p99) <= 5e6 },
    action: { SAVE(ml_enabled, 1) }
}`, 0))
	if c := codes(r); c[CodeSaveConflict] != 0 {
		t.Errorf("monitors on different hooks flagged as conflicting: %v", r.Diagnostics)
	}
}

// Contradictory SAVEs must also be caught on coinciding timers — and
// not on timers whose arithmetic progressions provably never align.
func TestTimerCoincidence(t *testing.T) {
	coinciding := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(0, 2) },
    rule: { LOAD(x) <= 1 },
    action: { SAVE(knob, 0) }
}
guardrail b {
    trigger: { TIMER(0, 3) },
    rule: { LOAD(y) <= 1 },
    action: { SAVE(knob, 1) }
}`, 0))
	d := find(t, coinciding, CodeSaveConflict)
	if d.Site != "TIMER" {
		t.Errorf("timer conflict site = %q, want TIMER", d.Site)
	}

	disjoint := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(0, 2) },
    rule: { LOAD(x) <= 1 },
    action: { SAVE(knob, 0) }
}
guardrail b {
    trigger: { TIMER(1, 2) },
    rule: { LOAD(y) <= 1 },
    action: { SAVE(knob, 1) }
}`, 0))
	if c := codes(disjoint); c[CodeSaveConflict] != 0 {
		t.Errorf("never-coinciding timers flagged: %v", disjoint.Diagnostics)
	}

	windowed := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(0, 1, 5) },
    rule: { LOAD(x) <= 1 },
    action: { SAVE(knob, 0) }
}
guardrail b {
    trigger: { TIMER(5, 1) },
    rule: { LOAD(y) <= 1 },
    action: { SAVE(knob, 1) }
}`, 0))
	if c := codes(windowed); c[CodeSaveConflict] != 0 {
		t.Errorf("non-overlapping timer windows flagged: %v", windowed.Diagnostics)
	}

	mixed := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(x) <= 1 },
    action: { SAVE(knob, 0) }
}
guardrail b {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(y) <= 1 },
    action: { SAVE(knob, 1) }
}`, 0))
	if c := codes(mixed); c[CodeSaveConflict] != 0 {
		t.Errorf("timer vs hook site flagged as co-firing: %v", mixed.Diagnostics)
	}
}

func TestReplaceConflicts(t *testing.T) {
	pingpong := Analyze(deployment(t, `
guardrail failover {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { REPLACE(linnos, heuristic) }
}
guardrail failback {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(lat_p99) <= 5e6 },
    action: { REPLACE(heuristic, linnos) }
}`, 0))
	d := find(t, pingpong, CodeReplaceConflict)
	if !strings.Contains(d.Message, "ping-pong") {
		t.Errorf("GI002 message = %q, want ping-pong", d.Message)
	}

	divergent := Analyze(deployment(t, `
guardrail to-lru {
    trigger: { FUNCTION(cache_miss) },
    rule: { LOAD(hit_rate) >= 0.5 },
    action: { REPLACE(cache_ml, lru) }
}
guardrail to-fifo {
    trigger: { FUNCTION(cache_miss) },
    rule: { LOAD(oob_rate) <= 0.01 },
    action: { REPLACE(cache_ml, fifo) }
}`, 0))
	d = find(t, divergent, CodeReplaceConflict)
	if !strings.Contains(d.Message, "divergent") {
		t.Errorf("GI002 message = %q, want divergent replacement", d.Message)
	}
}

func TestDuplicateActions(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail demote-a {
    trigger: { FUNCTION(sched_tick) },
    rule: { LOAD(jain) >= 0.6 },
    action: { DEPRIORITIZE(batch) RETRAIN(sched_ml) }
}
guardrail demote-b {
    trigger: { FUNCTION(sched_tick) },
    rule: { LOAD(wait_p99) <= 1e9 },
    action: { DEPRIORITIZE(batch) RETRAIN(sched_ml) }
}`, 0))
	c := codes(r)
	if c[CodeDuplicateAction] != 2 {
		t.Fatalf("GI003 count = %d, want 2 (DEPRIORITIZE warn + RETRAIN info): %v", c[CodeDuplicateAction], r.Diagnostics)
	}
	var sev []Severity
	for _, d := range r.Diagnostics {
		if d.Code == CodeDuplicateAction {
			sev = append(sev, d.Severity)
		}
	}
	if sev[0] != Warn || sev[1] != Info {
		t.Errorf("GI003 severities = %v, want [warning info] (demotion compounds, retraining only burns budget)", sev)
	}
}

func TestFeedbackCycleThreeMonitors(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(ka) <= 1 },
    action: { SAVE(kb, 2) }
}
guardrail b {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(kb) <= 1 },
    action: { SAVE(kc, 2) }
}
guardrail c {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(kc) <= 1 },
    action: { SAVE(ka, 2) }
}`, 0))
	d := find(t, r, CodeFeedbackCycle)
	for _, name := range []string{"a", "b", "c"} {
		if !implicates(d, name) {
			t.Errorf("cycle misses %q: %+v", name, d)
		}
	}
	if c := codes(r); c[CodeFeedbackCycle] != 1 {
		t.Errorf("GI004 reported %d times, want once per SCC", c[CodeFeedbackCycle])
	}
}

func TestNoCycleWithoutBackEdge(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail producer {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(sig) <= 1 },
    action: { SAVE(derived, 2) }
}
guardrail consumer {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(derived) <= 1 },
    action: { REPORT(LOAD(derived)) }
}`, 0))
	if c := codes(r); c[CodeFeedbackCycle] != 0 {
		t.Errorf("linear SAVE→LOAD chain flagged as a cycle: %v", r.Diagnostics)
	}
}

func TestHookBudget(t *testing.T) {
	src := `
guardrail one {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(a) <= 1 },
    action: { REPORT(LOAD(a)) }
}
guardrail two {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(b) <= 1 },
    action: { REPORT(LOAD(b)) }
}`
	over := Analyze(deployment(t, src, 4))
	d := find(t, over, CodeHookBudget)
	if d.Site != "io_submit" {
		t.Errorf("GI005 site = %q", d.Site)
	}
	if len(over.Sites) != 1 || over.Sites[0].Total <= 4 || len(over.Sites[0].Monitors) != 2 {
		t.Errorf("site table wrong: %+v", over.Sites)
	}

	fine := Analyze(deployment(t, src, 0))
	if c := codes(fine); c[CodeHookBudget] != 0 {
		t.Errorf("unlimited budget flagged: %v", fine.Diagnostics)
	}
	if len(fine.Sites) != 1 {
		t.Errorf("site table must be reported regardless of budget: %+v", fine.Sites)
	}

	dep := deployment(t, src, 4)
	dep.HookBudgets = map[string]int{"io_submit": 1000}
	if r := Analyze(dep); !r.Clean() {
		t.Errorf("per-site override ignored: %v", r.Diagnostics)
	}
}

// TestHookBudgetScalesWithShards: the declared budget is one event
// loop's capacity; a deployment that overflows a single loop can be
// within budget on a shard pool, where each firing lands on one of N
// loops. GI005 must check Total against budget × shards and say so.
func TestHookBudgetScalesWithShards(t *testing.T) {
	src := `
guardrail one {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(a) <= 1 },
    action: { REPORT(LOAD(a)) }
}
guardrail two {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(b) <= 1 },
    action: { REPORT(LOAD(b)) }
}`
	single := deployment(t, src, 4)
	total := Analyze(single).Sites[0].Total
	if total <= 4 {
		t.Fatalf("workload too cheap to overflow the single-loop budget: %d", total)
	}

	// Enough shards to absorb the load: clean, with the scaled budget
	// visible in the site table.
	wide := deployment(t, src, 4)
	wide.Shards = (total + 3) / 4
	r := Analyze(wide)
	if c := codes(r); c[CodeHookBudget] != 0 {
		t.Errorf("load within scaled budget still flagged: %v", r.Diagnostics)
	}
	s := r.Sites[0]
	if s.Shards != wide.Shards || s.EffectiveBudget != 4*wide.Shards {
		t.Errorf("site table missing shard scaling: %+v", s)
	}

	// Still over even at 2 shards: flagged, and the message explains
	// the scaled arithmetic.
	narrow := deployment(t, src, 1)
	narrow.Shards = 2
	d := find(t, Analyze(narrow), CodeHookBudget)
	if !strings.Contains(d.Message, "1 per loop × 2 shards") {
		t.Errorf("GI005 message does not explain shard scaling: %q", d.Message)
	}

	// Shards 0 and 1 are the single loop: identical to the baseline.
	zero := deployment(t, src, 4)
	zero.Shards = 1
	if r := Analyze(zero); codes(r)[CodeHookBudget] != 1 || r.Sites[0].Shards != 0 || r.Sites[0].EffectiveBudget != 0 {
		t.Errorf("shards=1 diverges from single-loop analysis: %+v %v", r.Sites, r.Diagnostics)
	}
}

func TestDeadGuardrailFromDeclaredRange(t *testing.T) {
	r := Analyze(deployment(t, `
feature util range(0, 1)

guardrail dead {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(util) <= 2 },
    action: { REPORT(LOAD(util)) }
}`, 0))
	d := find(t, r, CodeDeadGuardrail)
	if !strings.Contains(d.Message, "util") {
		t.Errorf("GI006 message does not name the constraining key: %q", d.Message)
	}
}

func TestDeadGuardrailFromProducerCertificate(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail producer {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(sig) <= 1 },
    action: { SAVE(level, 5) }
}
guardrail dead-consumer {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(level) <= 10 },
    action: { REPORT(LOAD(level)) }
}`, 0))
	d := find(t, r, CodeDeadGuardrail)
	if d.Guardrail != "dead-consumer" {
		t.Errorf("GI006 anchored to %q, want dead-consumer", d.Guardrail)
	}
	// The producer itself is live: open-world inputs can violate it.
	if implicates(d, "producer") {
		t.Errorf("producer wrongly implicated: %+v", d)
	}
}

// A monitor's own SAVE must not certify its own LOADs — self-feedback
// is vet's GV006; treating the self-write as a producer certificate
// would mark any self-stabilizing guardrail dead.
func TestOwnSavesDoNotRefineSelf(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail self-stabilizing {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(knob) <= 10 },
    action: { SAVE(knob, 0) }
}`, 0))
	if c := codes(r); c[CodeDeadGuardrail] != 0 {
		t.Errorf("self-stabilizing guardrail marked dead: %v", r.Diagnostics)
	}
}

// firstFirePair: report-low violates while x <= 1, and no monitor but
// raise-x writes x, which it sets to 10. The store starts every key at
// 0, so report-low violates on the first dispatch, before raise-x has
// written anything.
const firstFirePair = `
guardrail report-low {
    trigger: { FUNCTION(s) },
    rule: { LOAD(x) > 1 },
    action: { REPORT(1) }
}
guardrail raise-x {
    trigger: { FUNCTION(s) },
    rule: { LOAD(x) > 1 },
    action: { SAVE(x, 10) }
}`

// A key that only other monitors write reads the store's initial 0
// until one of them fires, so its env is the producers' SAVE ranges
// joined with 0: report-low, live on the first dispatch, is not dead.
func TestProducedKeyStartsAtZero(t *testing.T) {
	r := Analyze(deployment(t, firstFirePair, 0))
	if c := codes(r); c[CodeDeadGuardrail] != 0 {
		t.Errorf("a guardrail that fires on its first dispatch marked dead: %v", r.Diagnostics)
	}
}

func TestDuplicateNames(t *testing.T) {
	// Duplicate names across deployment entries cannot come from one
	// checked file (spec.Check rejects them), so build the deployment
	// from two compilations of the same source.
	d1 := deployment(t, testSpecOne, 0)
	d2 := deployment(t, testSpecOne, 0)
	dep := &Deployment{Monitors: append(d1.Monitors, d2.Monitors...)}
	r := Analyze(dep)
	d := find(t, r, CodeDuplicateName)
	if d.Severity != Warn || !strings.Contains(d.Message, "appears twice") {
		t.Errorf("GI007 = %+v", d)
	}
}

const testSpecOne = `
guardrail solo {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(x) <= 1 },
    action: { REPORT(LOAD(x)) }
}`

func TestRefinedVerificationFailure(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail zeroer {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(sig) <= 1 },
    action: { SAVE(divisor, 0) }
}
guardrail divider {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(x) / LOAD(divisor) <= 1 },
    action: { REPORT(LOAD(x)) }
}`, 0))
	d := find(t, r, CodeRefinedVerify)
	if d.Guardrail != "divider" {
		t.Errorf("GI008 anchored to %q, want divider", d.Guardrail)
	}
	if !strings.Contains(d.Message, "divisor") {
		t.Errorf("GI008 message does not name the refined key: %q", d.Message)
	}
}

func TestCleanDeploymentSummary(t *testing.T) {
	r := Analyze(deployment(t, `
feature oob range(0, 1)

guardrail p2-bounds {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(oob) <= 0.01 },
    action: { REPLACE(cache_ml, lru) }
}
guardrail p3-regret {
    trigger: { TIMER(0, 2e9) },
    rule: { LOAD(regret) <= 5 },
    action: { RETRAIN(sched_ml) }
}`, 100))
	if !r.Clean() {
		t.Fatalf("clean deployment flagged: %v", r.Diagnostics)
	}
	if r.Summary() != "no findings" {
		t.Errorf("Summary() = %q", r.Summary())
	}
}

// Dead monitors contribute no cycle edges: their SAVEs cannot execute,
// so a "cycle" through a dead monitor is not a runtime feedback loop.
func TestDeadMonitorBreaksCycle(t *testing.T) {
	r := Analyze(deployment(t, `
feature gate range(0, 1)

guardrail dead {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(gate) <= 5 },
    action: { SAVE(kb, 2) }
}
guardrail live {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(kb) <= 1 },
    action: { SAVE(gate, 0.5) }
}`, 0))
	c := codes(r)
	if c[CodeDeadGuardrail] != 1 {
		t.Fatalf("want one GI006: %v", r.Diagnostics)
	}
	if c[CodeFeedbackCycle] != 0 {
		t.Errorf("cycle through a dead monitor flagged: %v", r.Diagnostics)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Code: CodeSaveConflict, Severity: Warn,
		Pos: spec.Pos{Line: 3, Col: 7}, Guardrail: "a", Others: []string{"b"},
		Site: "io_submit", Message: "both SAVE k",
	}
	s := d.String()
	for _, want := range []string{"3:7", "warning", "[GI001]", "guardrail a (with b)", "both SAVE k"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestCompiledProofFillsOpenWorldEntry: Analyze's first pass takes each
// monitor's open-world analysis from the proof the compiler kept
// instead of analyzing the program again. The memo entry is that very
// proof, and it says what a fresh analysis says.
func TestCompiledProofFillsOpenWorldEntry(t *testing.T) {
	dep := deployment(t, `
feature err_rate range(0, 1)
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail follow {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(ml_enabled) >= 0.5 },
    action: { REPORT(LOAD(ml_enabled)) }
}`, 0)
	Analyze(dep)
	for _, c := range dep.Monitors {
		if c.Proof == nil {
			t.Fatalf("%s: compile kept no proof", c.Name)
		}
		got, err := dep.Analysis(c.Program, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.Proof {
			t.Errorf("%s: the open-world memo entry is not the compiler's proof", c.Name)
		}
		fresh, err := vm.AnalyzeWith(c.Program, vm.NumBuiltinHelpers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: proof %+v, fresh analysis %+v", c.Name, got, fresh)
		}
	}
}
