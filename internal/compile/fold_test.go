package compile

import (
	"testing"

	"guardrails/internal/spec"
)

// parseExpr extracts the single rule expression from a wrapped source.
func parseExpr(t *testing.T, exprSrc string) spec.Expr {
	t.Helper()
	src := "guardrail g { trigger: { TIMER(0,1) }, rule: { " + exprSrc + " }, action: { REPORT() } }"
	file, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSrc, err)
	}
	g := file.Guardrails[0]
	return g.Rules[0]
}

// parseValueExpr parses an arbitrary (non-predicate) expression via a
// SAVE action value, which has no predicate requirement.
func parseValueExpr(t *testing.T, exprSrc string) spec.Expr {
	t.Helper()
	src := "guardrail g { trigger: { TIMER(0,1) }, rule: { 1 < 2 }, action: { SAVE(k, " + exprSrc + ") } }"
	file, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSrc, err)
	}
	g := file.Guardrails[0]
	return g.Actions[0].(*spec.SaveAction).Value
}

func TestConstEvalValues(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"7", 7},
		{"true", 1},
		{"false", 0},
		{"1 + 2 * 3", 7},
		{"10 / 4", 2.5},
		{"10 / 0", 0}, // VM division semantics
		{"-(3 + 4)", -7},
		{"abs(0 - 5)", 5},
		{"min(3, 7)", 3},
		{"max(3, 7)", 7},
		{"sqrt(16)", 4},
		{"sqrt(0 - 4)", 0},
		{"log2(8)", 3},
		{"log2(0)", 0},
	}
	for _, c := range cases {
		got, ok := ConstEval(parseValueExpr(t, c.src))
		if !ok {
			t.Errorf("ConstEval(%q) not constant", c.src)
			continue
		}
		if got != c.want {
			t.Errorf("ConstEval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestConstEvalPredicates(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 < 2", 1},
		{"2 < 1", 0},
		{"3 <= 3", 1},
		{"3 > 3", 0},
		{"3 >= 3", 1},
		{"1 == 1", 1},
		{"1 != 1", 0},
		{"1 < 2 && 3 < 4", 1},
		{"1 < 2 && 4 < 3", 0},
		{"2 < 1 || 3 < 4", 1},
		{"!(1 < 2)", 0},
		{"true && false", 0},
	}
	for _, c := range cases {
		got, ok := ConstEval(parseExpr(t, c.src))
		if !ok {
			t.Errorf("ConstEval(%q) not constant", c.src)
			continue
		}
		if got != c.want {
			t.Errorf("ConstEval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestConstEvalDynamic(t *testing.T) {
	for _, src := range []string{
		"LOAD(x)",
		"LOAD(x) + 1",
		"now()",
		"now() + 1",
		"min(now(), 3)",
		"1 < 2 && LOAD(x) < 1",
	} {
		if v, ok := ConstEval(parseValueExpr(t, src)); ok {
			t.Errorf("ConstEval(%q) = %v, want non-constant", src, v)
		}
	}
}
