package vet

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/spec"
)

func parse(t *testing.T, src string) *spec.File {
	t.Helper()
	f, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := spec.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	return f
}

func codes(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Code
	}
	return out
}

func hasCode(ds []Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestCleanSpecNoWarnings(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(rate) <= 0.05; LOAD(rate) >= 0 },
    action: { SAVE(knob, false) }
}`)
	for _, d := range File(f) {
		if d.Severity == Warn {
			t.Errorf("unexpected warning on clean spec: %s", d)
		}
	}
}

func TestAlwaysTrueAndDeadActions(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { 3 > 2 },
    action: { REPORT(1) }
}`)
	ds := File(f)
	if !hasCode(ds, CodeAlwaysTrue) || !hasCode(ds, CodeDeadActions) {
		t.Errorf("want GV001+GV007, got %v", codes(ds))
	}
}

func TestAlwaysFalse(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { 1 > 2; LOAD(x) > 0 },
    action: { REPORT(1) }
}`)
	ds := File(f)
	if !hasCode(ds, CodeAlwaysFalse) {
		t.Errorf("want GV002, got %v", codes(ds))
	}
	if hasCode(ds, CodeDeadActions) {
		t.Errorf("GV007 must not fire when a rule is falsifiable: %v", codes(ds))
	}
}

func TestContradictionBothOperandOrders(t *testing.T) {
	// Mirrored constant-first comparison must normalize: 10 < LOAD(x)
	// means x > 10, contradicting x <= 5.
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { 10 < LOAD(x); LOAD(x) <= 5 },
    action: { REPORT(1) }
}`)
	if ds := File(f); !hasCode(ds, CodeContradiction) {
		t.Errorf("want GV003, got %v", codes(ds))
	}
	// Overlapping intervals must stay silent.
	f = parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(x) >= 1; LOAD(x) <= 5 },
    action: { REPORT(1) }
}`)
	if ds := File(f); hasCode(ds, CodeContradiction) {
		t.Errorf("false GV003 on satisfiable bounds: %v", codes(ds))
	}
}

func TestTautologicalComparisonOutcomes(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(x) >= LOAD(x); LOAD(x) != LOAD(x) },
    action: { REPORT(1) }
}`)
	var tauto []Diagnostic
	for _, d := range File(f) {
		if d.Code == CodeTautologicalCmp {
			tauto = append(tauto, d)
		}
	}
	if len(tauto) != 2 {
		t.Fatalf("want 2 GV004, got %d", len(tauto))
	}
	if !strings.Contains(tauto[0].Message, "always true") ||
		!strings.Contains(tauto[1].Message, "always false") {
		t.Errorf("wrong outcomes: %q / %q", tauto[0].Message, tauto[1].Message)
	}
}

func TestUnreadKeyIsInfoAndCrossGuardrail(t *testing.T) {
	// knob is SAVEd in g1 but LOADed by g2's rules: linting the two
	// together must not flag it; linting g1 alone must (as Info).
	const g1 = `
guardrail g1 {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(rate) <= 1 },
    action: { SAVE(knob, 0) }
}`
	f := parse(t, g1+`
guardrail g2 {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(knob) == 0 },
    action: { REPORT(1) }
}`)
	if ds := File(f); hasCode(ds, CodeUnreadKey) {
		t.Errorf("GV005 fired despite cross-guardrail LOAD: %v", codes(ds))
	}
	ds := File(parse(t, g1))
	if !hasCode(ds, CodeUnreadKey) {
		t.Fatalf("want GV005 from isolated lint, got %v", codes(ds))
	}
	for _, d := range ds {
		if d.Code == CodeUnreadKey && d.Severity != Info {
			t.Errorf("GV005 must be Info, got %s", d.Severity)
		}
	}
}

func TestFeedbackLoop(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(mode) == 1 },
    action: { SAVE(mode, 0) }
}`)
	if ds := File(f); !hasCode(ds, CodeFeedbackLoop) {
		t.Errorf("want GV006, got %v", codes(ds))
	}
}

func TestConstZeroDivInActionExpr(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(x) > 0 },
    action: { SAVE(y, LOAD(x) / (2 - 2)) }
}`)
	if ds := File(f); !hasCode(ds, CodeConstZeroDiv) {
		t.Errorf("want GV009 in action operand, got %v", codes(ds))
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	f := parse(t, `
guardrail g {
    trigger: { TIMER(start_time, 1e9) },
    rule: { 1 > 2; 2 > 3; LOAD(x) > 0 },
    action: { REPORT(1) }
}`)
	ds := File(f)
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1].Pos, ds[i].Pos
		if a.Line > b.Line || (a.Line == b.Line && a.Col > b.Col) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestThresholdRange covers GV010: a constant threshold strictly
// outside (or fully covering) a feature's declared range is a dead or
// vacuous guard; thresholds that properly cut the range are silent, and
// undeclared keys are never flagged.
func TestThresholdRange(t *testing.T) {
	f := parse(t, `
feature util range(0, 1)

guardrail vacuous {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(util) <= 2 },
    action: { REPORT(1) }
}
guardrail unsatisfiable {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(util) >= 5 },
    action: { REPORT(1) }
}
guardrail proper {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(util) <= 0.9 },
    action: { REPORT(1) }
}
guardrail undeclared {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(other) <= 99 },
    action: { REPORT(1) }
}`)
	ds := File(f)
	var hits []Diagnostic
	for _, d := range ds {
		if d.Code == CodeThresholdRange {
			hits = append(hits, d)
		}
	}
	if len(hits) != 2 {
		t.Fatalf("GV010 fired %d times, want 2: %v", len(hits), ds)
	}
	for _, d := range hits {
		if d.Severity != Warn {
			t.Errorf("GV010 severity = %v, want Warn", d.Severity)
		}
		switch d.Guardrail {
		case "vacuous":
			if !strings.Contains(d.Message, "holds for every value") {
				t.Errorf("vacuous message = %q", d.Message)
			}
		case "unsatisfiable":
			if !strings.Contains(d.Message, "unsatisfiable") {
				t.Errorf("unsatisfiable message = %q", d.Message)
			}
		default:
			t.Errorf("GV010 flagged %q", d.Guardrail)
		}
	}
}

// TestThresholdRangeBoundary: thresholds exactly at the declared bounds
// still admit (or exclude) a real value, so they are not flagged as
// unsatisfiable — only strictly-outside constants are.
func TestThresholdRangeBoundary(t *testing.T) {
	f := parse(t, `
feature util range(0, 1)

guardrail at-hi {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(util) >= 1 },
    action: { REPORT(1) }
}`)
	for _, d := range File(f) {
		if d.Code == CodeThresholdRange {
			t.Errorf("boundary threshold flagged: %s", d)
		}
	}
}

// TestUnknownGlobalsIsFileConfigsGV011: the deployment gate's GV011-only
// entry point reports exactly the GV011 findings of the full lint, in
// the same order, and nothing when every global is registered.
func TestUnknownGlobalsIsFileConfigsGV011(t *testing.T) {
	f := parse(t, `
guardrail late {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(qdepth_global) <= 8 && LOAD(x) <= 1 && LOAD(x) > 1 },
    action: { SAVE(knob, LOAD(lat_global)) }
}
guardrail early {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(err_rate_global) <= 0.25 },
    action: { REPORT() }
}`)
	for _, aggregates := range [][]string{{}, {"qdepth"}, {"qdepth", "lat", "err_rate"}} {
		var want []string
		for _, d := range FileConfig(f, &Config{Aggregates: aggregates}) {
			if d.Code == CodeUnknownGlobal {
				want = append(want, d.String())
			}
		}
		var got []string
		for _, d := range UnknownGlobals(f, aggregates) {
			got = append(got, d.String())
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") || len(want) != 3-len(aggregates) {
			t.Errorf("aggregates %v:\ngot  %q\nwant %q", aggregates, got, want)
		}
	}
}

// TestSameExprMatchesRendering is sameExpr's differential: on every pair
// of subexpressions of the checked-in specs and of the check_manifest
// deployment's rules, plus hand-built literals the parser cannot write
// (-0, NaN; not beside a parsed "-0", which renders as the -0 literal
// does), it agrees with comparing spec.ExprString renderings, which
// is what the duplicate-rule (GV002) and identical-sides checks asked
// before they stopped rendering.
func TestSameExprMatchesRendering(t *testing.T) {
	var sources []string
	paths, _ := filepath.Glob(filepath.Join("..", "..", "..", "cmd", "grailcheck", "testdata", "*.grail"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, string(data))
	}
	for _, sf := range gen.BuildManifest(1, 1).Files {
		sources = append(sources, sf.Source)
	}
	var exprs []spec.Expr
	for _, src := range sources {
		f, err := spec.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range f.Guardrails {
			for _, r := range g.Rules {
				spec.WalkExpr(r, func(e spec.Expr) { exprs = append(exprs, e) })
			}
		}
	}
	zero, negZero, nan := &spec.NumLit{}, &spec.NumLit{Value: math.Copysign(0, -1)}, &spec.NumLit{Value: math.NaN()}
	exprs = append(exprs, zero, negZero, nan, &spec.NumLit{Value: -math.NaN()},
		&spec.UnaryExpr{Op: spec.TokMinus, X: nan}, &spec.UnaryExpr{Op: spec.TokNot, X: nan},
		&spec.CallExpr{Fn: "min", Args: []spec.Expr{nan, zero}}, &spec.CallExpr{Fn: "min", Args: []spec.Expr{nan, negZero}})
	if len(exprs) < 500 {
		t.Fatalf("only %d subexpressions", len(exprs))
	}
	text := make([]string, len(exprs))
	for i, e := range exprs {
		text[i] = spec.ExprString(e)
	}
	same := 0
	for i, a := range exprs {
		for j, b := range exprs[i:] {
			want := text[i] == text[i+j]
			if got := sameExpr(a, b); got != want {
				t.Fatalf("sameExpr(%s, %s) = %v, renderings equal: %v", text[i], text[i+j], got, want)
			}
			if want {
				same++
			}
		}
	}
	if same <= len(exprs) {
		t.Errorf("no two distinct nodes render alike among %d", len(exprs))
	}
}
