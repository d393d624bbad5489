package spec

import (
	"strings"
	"testing"
)

// listing2 is the paper's Listing 2, verbatim.
const listing2 = `
guardrail low-false-submit {
    trigger: {
        TIMER(start_time, 1e9) // Periodically check every 1s.
    },
    rule: {
        LOAD(false_submit_rate) <= 0.05
    },
    action: {
        SAVE(ml_enabled, false)
    }
}
`

func TestParseListing2(t *testing.T) {
	file, err := Parse(listing2)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	if g.Name != "low-false-submit" {
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Triggers) != 1 || len(g.Rules) != 1 || len(g.Actions) != 1 {
		t.Fatalf("shape: %d triggers, %d rules, %d actions", len(g.Triggers), len(g.Rules), len(g.Actions))
	}
	tt, ok := g.Triggers[0].(*TimerTrigger)
	if !ok {
		t.Fatalf("trigger type %T", g.Triggers[0])
	}
	if tt.Start != 0 || tt.Interval != 1e9 || tt.Stop != 0 {
		t.Errorf("timer = %+v", tt)
	}
	rule, ok := g.Rules[0].(*BinaryExpr)
	if !ok || rule.Op != TokLe {
		t.Fatalf("rule = %s", ExprString(g.Rules[0]))
	}
	ld, ok := rule.X.(*LoadExpr)
	if !ok || ld.Key != "false_submit_rate" {
		t.Errorf("rule lhs = %s", ExprString(rule.X))
	}
	if num, ok := rule.Y.(*NumLit); !ok || num.Value != 0.05 {
		t.Errorf("rule rhs = %s", ExprString(rule.Y))
	}
	sv, ok := g.Actions[0].(*SaveAction)
	if !ok || sv.Key != "ml_enabled" {
		t.Fatalf("action = %v", g.Actions[0])
	}
	if b, ok := sv.Value.(*BoolLit); !ok || b.Value {
		t.Errorf("save value = %s", ExprString(sv.Value))
	}
	if err := Check(&File{Guardrails: []*Guardrail{g}}); err != nil {
		t.Errorf("listing 2 fails check: %v", err)
	}
}

func TestParseAllTriggerForms(t *testing.T) {
	src := `
guardrail multi {
    trigger: {
        TIMER(0, 5e8, 1e10),
        TIMER(100, 200)
        FUNCTION(io_submit);
    },
    rule: { LOAD(x) < 1 },
    action: { REPORT(LOAD(x)) }
}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	if len(g.Triggers) != 3 {
		t.Fatalf("triggers = %d", len(g.Triggers))
	}
	t1 := g.Triggers[0].(*TimerTrigger)
	if t1.Start != 0 || t1.Interval != 5e8 || t1.Stop != 1e10 {
		t.Errorf("t1 = %+v", t1)
	}
	ft := g.Triggers[2].(*FuncTrigger)
	if ft.Site != "io_submit" {
		t.Errorf("site = %q", ft.Site)
	}
}

func TestParseAllActionForms(t *testing.T) {
	src := `
guardrail acts {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(err_rate) <= 0.1 && LOAD(lat) < 100 },
    action: {
        REPORT(LOAD(err_rate), now())
        REPLACE(learned_policy, baseline_policy)
        RETRAIN(io_model)
        DEPRIORITIZE(batch_jobs, 19)
        DEPRIORITIZE(bg_tasks)
        SAVE(ml_enabled, 0)
    }
}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	if len(g.Actions) != 6 {
		t.Fatalf("actions = %d", len(g.Actions))
	}
	if r := g.Actions[0].(*ReportAction); len(r.Args) != 2 {
		t.Errorf("report args = %d", len(r.Args))
	}
	rp := g.Actions[1].(*ReplaceAction)
	if rp.Old != "learned_policy" || rp.New != "baseline_policy" {
		t.Errorf("replace = %+v", rp)
	}
	if rt := g.Actions[2].(*RetrainAction); rt.Model != "io_model" {
		t.Errorf("retrain = %+v", rt)
	}
	d1 := g.Actions[3].(*DeprioritizeAction)
	if d1.Target != "batch_jobs" || d1.Priority == nil {
		t.Errorf("deprioritize = %+v", d1)
	}
	d2 := g.Actions[4].(*DeprioritizeAction)
	if d2.Priority != nil {
		t.Errorf("deprioritize default = %+v", d2)
	}
	if err := CheckGuardrail(g); err != nil {
		t.Errorf("check: %v", err)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	src := `
guardrail prec {
    trigger: { TIMER(0, 1) },
    rule: { LOAD(a) + LOAD(b) * 2 < 10 || LOAD(c) > 5 && LOAD(d) != 0 },
    action: { REPORT() }
}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	got := ExprString(g.Rules[0])
	want := "(((LOAD(a) + (LOAD(b) * 2)) < 10) || ((LOAD(c) > 5) && (LOAD(d) != 0)))"
	if got != want {
		t.Errorf("precedence:\n got %s\nwant %s", got, want)
	}
}

func TestParseUnaryAndParens(t *testing.T) {
	src := `
guardrail un {
    trigger: { TIMER(0, 1) },
    rule: { !(LOAD(x) > 3) && -LOAD(y) < abs(LOAD(z) - 2) },
    action: { REPORT() }
}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	got := ExprString(g.Rules[0])
	want := "(!(LOAD(x) > 3) && (-LOAD(y) < abs((LOAD(z) - 2))))"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestParseMinusStartsRule: in a rule list a '-' that starts a line
// starts the next rule, as a newline separates rules everywhere else;
// inside parentheses or call arguments, or after an operator that
// ends a line, it stays a subtraction.
func TestParseMinusStartsRule(t *testing.T) {
	rules := func(body string) []string {
		t.Helper()
		file, err := Parse("guardrail m {\n  trigger: { TIMER(0, 1) },\n  rule: {\n" + body + "\n  }\n}")
		if err != nil {
			t.Errorf("%q: %v", body, err)
			return nil
		}
		var got []string
		for _, r := range file.Guardrails[0].Rules {
			got = append(got, ExprString(r))
		}
		return got
	}
	for _, c := range []struct {
		body string
		want []string
	}{
		{"LOAD(a) > 1\n-2 < LOAD(b)", []string{"(LOAD(a) > 1)", "(-2 < LOAD(b))"}},
		{"LOAD(a) > 1\n  -2", []string{"(LOAD(a) > 1)", "-2"}},
		{"LOAD(a) > 1 -\n2", []string{"(LOAD(a) > (1 - 2))"}},
		{"LOAD(a) > (1\n-2)", []string{"(LOAD(a) > (1 - 2))"}},
		{"LOAD(a) > abs(1\n-2)", []string{"(LOAD(a) > abs((1 - 2)))"}},
	} {
		if got := rules(c.body); strings.Join(got, "; ") != strings.Join(c.want, "; ") {
			t.Errorf("%q parsed as %q, want %q", c.body, got, c.want)
		}
	}

	// A stray "-2" line is its own rule, so Check rejects it where it is.
	file, err := Parse("guardrail m {\n  trigger: { TIMER(0, 1) },\n  rule: { LOAD(a) > 1\n-2 },\n  action: { REPORT() }\n}")
	if err != nil {
		t.Fatal(err)
	}
	err = Check(file)
	if err == nil || !strings.HasPrefix(err.Error(), "4:1: ") || !strings.Contains(err.Error(), "is not a predicate") {
		t.Errorf("Check = %v, want a 4:1 \"is not a predicate\" error", err)
	}
}

func TestParseBareIdentifiersAsLoads(t *testing.T) {
	src := `
guardrail bare {
    trigger: { TIMER(0, 1) },
    rule: { page_fault_latency <= 2e6 },
    action: { REPORT(page_fault_latency) }
}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	rule := g.Rules[0].(*BinaryExpr)
	if id, ok := rule.X.(*IdentExpr); !ok || id.Name != "page_fault_latency" {
		t.Errorf("lhs = %s", ExprString(rule.X))
	}
	if err := CheckGuardrail(g); err != nil {
		t.Errorf("check: %v", err)
	}
}

func TestParseMultipleGuardrails(t *testing.T) {
	src := listing2 + `
guardrail second {
    trigger: { FUNCTION(sched_pick) },
    rule: { LOAD(delay) < 1e8 },
    action: { REPORT() }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Guardrails) != 2 {
		t.Fatalf("guardrails = %d", len(f.Guardrails))
	}
	if f.Guardrails[1].Name != "second" {
		t.Errorf("second name = %q", f.Guardrails[1].Name)
	}
	if err := Check(f); err != nil {
		t.Error(err)
	}
}

func TestParseSectionsAnyOrder(t *testing.T) {
	src := `
guardrail reorder {
    action: { REPORT() },
    rule: { LOAD(x) < 1 },
    trigger: { TIMER(0, 1) }
}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	if len(g.Triggers) != 1 || len(g.Rules) != 1 || len(g.Actions) != 1 {
		t.Error("sections lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", "no guardrails"},
		{"not-guardrail", "foo bar {}", `expected "guardrail"`},
		{"bad-section", "guardrail g { bogus: {} }", "unknown section"},
		{"dup-section", "guardrail g { rule: { LOAD(x) < 1 }, rule: { LOAD(y) < 1 } }", "duplicate section"},
		{"bad-trigger", "guardrail g { trigger: { WHENEVER(x) } }", "unknown trigger"},
		{"timer-arity", "guardrail g { trigger: { TIMER(1) } }", "TIMER takes 2 or 3"},
		{"timer-bad-arg", "guardrail g { trigger: { TIMER(foo, 1) } }", "must be a number"},
		{"bad-action", "guardrail g { trigger: {TIMER(0,1)}, rule: {LOAD(x)<1}, action: { EXPLODE(x) } }", "unknown action"},
		{"unclosed", "guardrail g { trigger: { TIMER(0,1) }", "unexpected end of input"},
		{"trailing-expr", "guardrail g { rule: { LOAD(x) < } }", "expected expression"},
		{"replace-arity", "guardrail g { trigger: {TIMER(0,1)}, rule: {LOAD(x)<1}, action: { REPLACE(a) } }", "expected ','"},
		{"save-missing-value", "guardrail g { trigger: {TIMER(0,1)}, rule: {LOAD(x)<1}, action: { SAVE(k) } }", "expected ','"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("%q parsed without error", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestGuardrailStringRoundTrip(t *testing.T) {
	file, err := Parse(listing2)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	rendered := g.String()
	// The canonical form must itself parse to the same structure.
	file2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, rendered)
	}
	g2 := file2.Guardrails[0]
	if g2.Name != g.Name || len(g2.Rules) != len(g.Rules) {
		t.Error("round trip changed structure")
	}
	if g2.String() != rendered {
		t.Error("canonical form is not a fixed point")
	}
}
