package compile

import (
	"strings"
	"testing"

	"guardrails/internal/vm"
)

// opCounts compiles src at the given level and tallies opcode usage.
func opCounts(t *testing.T, src string, level int) (map[vm.Op]int, *Compiled) {
	t.Helper()
	cs, err := SourceWith(src, Options{Level: level})
	if err != nil {
		t.Fatalf("compile -O%d: %v\n%s", level, err, src)
	}
	if len(cs) != 1 {
		t.Fatalf("compiled %d guardrails", len(cs))
	}
	counts := map[vm.Op]int{}
	for _, in := range cs[0].Program.Code {
		counts[in.Op]++
	}
	return counts, cs[0]
}

func ruleSrc(expr string) string {
	return "guardrail g { trigger: { TIMER(0,1) }, rule: { " + expr + " }, action: { SAVE(bad, 1) } }"
}

func TestConstFoldEliminatesHelperCalls(t *testing.T) {
	src := ruleSrc("sqrt(16) <= LOAD(x)")
	o0, _ := opCounts(t, src, 0)
	o1, c := opCounts(t, src, 1)
	if o0[vm.OpCall] != 1 {
		t.Errorf("-O0 should call sqrt once, got %d", o0[vm.OpCall])
	}
	if o1[vm.OpCall] != 0 {
		t.Errorf("-O1 should fold sqrt(16)\n%s", c.Program)
	}
	// Semantics unchanged.
	out, _ := runProg(t, c, map[string]float64{"x": 4})
	if out != 1 {
		t.Errorf("x=4: got %v", out)
	}
	out, _ = runProg(t, c, map[string]float64{"x": 3})
	if out != 0 {
		t.Errorf("x=3: got %v", out)
	}
}

func TestCSECollapsesRepeatedLoads(t *testing.T) {
	src := ruleSrc("LOAD(k) + LOAD(k) + LOAD(k) <= 3 * LOAD(k)")
	o0, _ := opCounts(t, src, 0)
	o1, c := opCounts(t, src, 1)
	if o0[vm.OpLoad] != 4 {
		t.Errorf("-O0 loads = %d, want 4", o0[vm.OpLoad])
	}
	if o1[vm.OpLoad] != 1 {
		t.Errorf("-O1 loads = %d, want 1 (CSE hits the store once)\n%s", o1[vm.OpLoad], c.Program)
	}
	out, _ := runProg(t, c, map[string]float64{"k": 7})
	if out != 1 {
		t.Errorf("3k <= 3k must hold, got %v", out)
	}
}

func TestCSERespectsStoreClobber(t *testing.T) {
	// The violated path stores to k between two loads of k in separate
	// rules — but rules are separate blocks anyway; the load in the action
	// argument after a SAVE must not reuse the pre-store value.
	src := `
guardrail clobber {
    trigger: { TIMER(0,1) },
    rule: { LOAD(k) < 0 },
    action: { SAVE(k, 5); REPORT(LOAD(k)) }
}`
	cs, err := Source(src)
	if err != nil {
		t.Fatal(err)
	}
	_, e := runProg(t, cs[0], map[string]float64{"k": 1}) // violates k < 0
	if len(e.actions) != 1 || e.actions[0].args[0] != 5 {
		t.Errorf("REPORT saw stale k: %+v\n%s", e.actions, cs[0].Program)
	}
}

func TestCSEDoesNotMergeAcrossHelperState(t *testing.T) {
	// now() is stateful: two calls must both survive optimization.
	src := ruleSrc("now() <= now()")
	o1, c := opCounts(t, src, 1)
	if o1[vm.OpCall] != 2 {
		t.Errorf("now() calls = %d, want 2\n%s", o1[vm.OpCall], c.Program)
	}
}

func TestDCERemovesUnreachableViolationPath(t *testing.T) {
	// A constant-true rule makes the violation path unreachable; DCE drops
	// the whole action sequence including its helper dispatch.
	src := `
guardrail ct {
    trigger: { TIMER(0,1) },
    rule: { 1 < 2 },
    action: { REPORT(LOAD(a), LOAD(b)); RETRAIN(m) }
}`
	o1, c := opCounts(t, src, 1)
	if o1[vm.OpCall] != 0 || o1[vm.OpLoad] != 0 {
		t.Errorf("unreachable action path survived\n%s", c.Program)
	}
	if len(c.Program.Code) != 2 {
		t.Errorf("constant-true program = %d insns, want 2 (movi+exit)\n%s",
			len(c.Program.Code), c.Program)
	}
}

func TestImmediateSelection(t *testing.T) {
	// Constant operands fold into immediate ALU and jump forms: no
	// register is wasted holding 0.05 or 2.
	counts, c := opCounts(t, ruleSrc("LOAD(x) * 2 <= 0.05"), 1)
	if counts[vm.OpMul] > 0 || counts[vm.OpMulI] != 1 {
		t.Errorf("mul-by-2 should use the immediate form\n%s", c.Program)
	}
	if counts[vm.OpJLe]+counts[vm.OpJGt] > 0 {
		t.Errorf("threshold compare should use the immediate form\n%s", c.Program)
	}
	out, _ := runProg(t, c, map[string]float64{"x": 0.02})
	if out != 1 {
		t.Errorf("0.04 <= 0.05 must hold, got %v", out)
	}
	out, _ = runProg(t, c, map[string]float64{"x": 0.03})
	if out != 0 {
		t.Errorf("0.06 <= 0.05 must fail, got %v", out)
	}
}

func TestOptimizationNeverGrowsPrograms(t *testing.T) {
	srcs := []string{
		listing2,
		ruleSrc("LOAD(a) < 10 && LOAD(b) > 2"),
		ruleSrc("abs(LOAD(x) - LOAD(y)) / max(LOAD(y), 1) <= 0.5"),
		ruleSrc("sqrt(LOAD(v)) + log2(LOAD(n)) < now()"),
		ruleSrc("!(LOAD(x) == 0) && (LOAD(y) < 5 || LOAD(z) >= 1)"),
	}
	for _, src := range srcs {
		o0, _ := opCounts(t, src, 0)
		o1, c := opCounts(t, src, 1)
		var n0, n1 int
		for _, n := range o0 {
			n0 += n
		}
		for _, n := range o1 {
			n1 += n
		}
		if n1 > n0 {
			t.Errorf("optimization grew program from %d to %d insns\n%s", n0, n1, c.Program)
		}
	}
}

func TestTraceNamesEveryPass(t *testing.T) {
	var sb strings.Builder
	if _, err := SourceWith(listing2, Options{Level: 1, Trace: &sb}); err != nil {
		t.Fatal(err)
	}
	for _, p := range passesForLevel(1) {
		if !strings.Contains(sb.String(), "; after "+p.name) {
			t.Errorf("trace missing pass %q", p.name)
		}
	}
}
