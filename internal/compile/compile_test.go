package compile

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// env is a test vm.Env backed by the program symbol table.
type env struct {
	p       *vm.Program
	vals    map[string]float64
	stores  map[string]float64
	actions []struct {
		idx  int
		args [4]float64
	}
	now float64
}

func newEnv(p *vm.Program) *env {
	return &env{p: p, vals: map[string]float64{}, stores: map[string]float64{}}
}

func (e *env) LoadCell(i int32) float64 {
	name := e.p.Symbols[i]
	if v, ok := e.stores[name]; ok {
		return v
	}
	return e.vals[name]
}

func (e *env) StoreCell(i int32, v float64) { e.stores[e.p.Symbols[i]] = v }

func (e *env) Helper(h vm.HelperID, args *[5]float64) (float64, error) {
	switch h {
	case vm.HelperNow:
		return e.now, nil
	case vm.HelperSqrt:
		if args[0] < 0 {
			return 0, nil
		}
		return math.Sqrt(args[0]), nil
	case vm.HelperLog2:
		if args[0] <= 0 {
			return 0, nil
		}
		return math.Log2(args[0]), nil
	case vm.HelperAction:
		e.actions = append(e.actions, struct {
			idx  int
			args [4]float64
		}{int(args[0]), [4]float64{args[1], args[2], args[3], args[4]}})
		return 0, nil
	}
	return 0, nil
}

func compileOne(t *testing.T, src string) *Compiled {
	t.Helper()
	cs, err := Source(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("compiled %d guardrails", len(cs))
	}
	return cs[0]
}

func runProg(t *testing.T, c *Compiled, vals map[string]float64) (float64, *env) {
	t.Helper()
	e := newEnv(c.Program)
	for k, v := range vals {
		e.vals[k] = v
	}
	var m vm.Machine
	out, err := m.Run(c.Program, e, 0)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, c.Program)
	}
	return out, e
}

const listing2 = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`

func TestCompileListing2(t *testing.T) {
	c := compileOne(t, listing2)
	if c.Name != "low-false-submit" {
		t.Errorf("name = %q", c.Name)
	}
	// Property holds: rate below threshold.
	out, e := runProg(t, c, map[string]float64{"false_submit_rate": 0.03})
	if out != 1 {
		t.Errorf("holds case returned %v", out)
	}
	if _, wrote := e.stores["ml_enabled"]; wrote {
		t.Error("action ran although property holds")
	}
	// Property violated: the SAVE action must run.
	out, e = runProg(t, c, map[string]float64{"false_submit_rate": 0.10})
	if out != 0 {
		t.Errorf("violated case returned %v", out)
	}
	if got, wrote := e.stores["ml_enabled"]; !wrote || got != 0 {
		t.Errorf("ml_enabled = %v (wrote=%v), want 0", got, wrote)
	}
	// Boundary: exactly 0.05 satisfies <=.
	out, _ = runProg(t, c, map[string]float64{"false_submit_rate": 0.05})
	if out != 1 {
		t.Errorf("boundary case returned %v", out)
	}
}

func TestCompileMultipleRulesConjunction(t *testing.T) {
	src := `
guardrail conj {
    trigger: { TIMER(0, 1) },
    rule: {
        LOAD(a) < 10;
        LOAD(b) > 2
    },
    action: { SAVE(violated, 1) }
}`
	c := compileOne(t, src)
	cases := []struct {
		a, b float64
		want float64
	}{
		{5, 3, 1}, {15, 3, 0}, {5, 1, 0}, {15, 1, 0},
	}
	for _, cs := range cases {
		out, e := runProg(t, c, map[string]float64{"a": cs.a, "b": cs.b})
		if out != cs.want {
			t.Errorf("a=%v b=%v: out=%v want %v", cs.a, cs.b, out, cs.want)
		}
		if cs.want == 0 && e.stores["violated"] != 1 {
			t.Errorf("a=%v b=%v: action did not run", cs.a, cs.b)
		}
	}
}

func TestCompileArithmeticAndBuiltins(t *testing.T) {
	src := `
guardrail math {
    trigger: { TIMER(0, 1) },
    rule: { abs(LOAD(x) - LOAD(y)) / max(LOAD(y), 1) <= 0.5 },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	out, _ := runProg(t, c, map[string]float64{"x": 12, "y": 10}) // |2|/10 = 0.2
	if out != 1 {
		t.Errorf("relative error 0.2 should hold, got %v", out)
	}
	out, _ = runProg(t, c, map[string]float64{"x": 20, "y": 10}) // 1.0
	if out != 0 {
		t.Errorf("relative error 1.0 should violate, got %v", out)
	}
	// max(y,1) guards division by zero.
	out, _ = runProg(t, c, map[string]float64{"x": 0.2, "y": 0})
	if out != 1 {
		t.Errorf("y=0 case: got %v", out)
	}
}

func TestCompileSqrtLog2Now(t *testing.T) {
	src := `
guardrail helpers {
    trigger: { TIMER(0, 1) },
    rule: { sqrt(LOAD(v)) + log2(LOAD(n)) < now() },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	e := newEnv(c.Program)
	e.vals["v"] = 16 // sqrt = 4
	e.vals["n"] = 8  // log2 = 3
	e.now = 10       // 4+3 < 10 holds
	var m vm.Machine
	out, err := m.Run(c.Program, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 1 {
		t.Errorf("got %v", out)
	}
	e.now = 5 // 7 < 5 fails
	out, err = m.Run(c.Program, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 0 {
		t.Errorf("got %v", out)
	}
}

func TestCompileShortCircuit(t *testing.T) {
	src := `
guardrail sc {
    trigger: { TIMER(0, 1) },
    rule: { LOAD(a) > 0 || LOAD(b) / LOAD(c) > 1 },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	// a>0 short-circuits; division by zero on the right is never reached
	// (and is safe anyway under VM semantics).
	out, _ := runProg(t, c, map[string]float64{"a": 1, "b": 5, "c": 0})
	if out != 1 {
		t.Errorf("short-circuit OR: got %v", out)
	}
	out, _ = runProg(t, c, map[string]float64{"a": 0, "b": 5, "c": 2})
	if out != 1 {
		t.Errorf("right branch true: got %v", out)
	}
	out, _ = runProg(t, c, map[string]float64{"a": 0, "b": 5, "c": 10})
	if out != 0 {
		t.Errorf("both false: got %v", out)
	}
}

func TestCompileActionDispatch(t *testing.T) {
	src := `
guardrail acts {
    trigger: { TIMER(0, 1) },
    rule: { LOAD(ok) == 1 },
    action: {
        REPORT(LOAD(lat), LOAD(err));
        REPLACE(learned, fallback);
        RETRAIN(model);
        DEPRIORITIZE(batch, 15);
        SAVE(ml_enabled, 0)
    }
}`
	c := compileOne(t, src)
	if len(c.Actions) != 5 {
		t.Fatalf("actions = %d", len(c.Actions))
	}
	out, e := runProg(t, c, map[string]float64{"ok": 0, "lat": 120, "err": 0.3})
	if out != 0 {
		t.Fatalf("out = %v", out)
	}
	// Four dispatched actions (SAVE is inlined).
	if len(e.actions) != 4 {
		t.Fatalf("dispatched %d actions: %+v", len(e.actions), e.actions)
	}
	if e.actions[0].idx != 0 || e.actions[0].args[0] != 120 || e.actions[0].args[1] != 0.3 {
		t.Errorf("REPORT dispatch = %+v", e.actions[0])
	}
	if e.actions[1].idx != 1 || e.actions[2].idx != 2 {
		t.Errorf("REPLACE/RETRAIN indices: %+v", e.actions)
	}
	if e.actions[3].idx != 3 || e.actions[3].args[0] != 15 {
		t.Errorf("DEPRIORITIZE dispatch = %+v", e.actions[3])
	}
	if e.stores["ml_enabled"] != 0 {
		t.Error("SAVE did not run")
	}
	// No dispatch when property holds.
	_, e = runProg(t, c, map[string]float64{"ok": 1})
	if len(e.actions) != 0 {
		t.Errorf("actions ran on holding property: %+v", e.actions)
	}
}

func TestCompileConstantTrueRuleSkipsCheck(t *testing.T) {
	src := `
guardrail ct {
    trigger: { TIMER(0, 1) },
    rule: { 1 < 2 },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	out, e := runProg(t, c, nil)
	if out != 1 {
		t.Errorf("constant-true rule: got %v", out)
	}
	if len(e.stores) != 0 {
		t.Error("action ran")
	}
	// The whole rule folded away: program should be tiny (movi+exit plus
	// unreachable violation path).
	if len(c.Program.Code) > 8 {
		t.Errorf("constant-true program has %d insns:\n%s", len(c.Program.Code), c.Program)
	}
}

func TestCompileConstantFalseRuleAlwaysViolates(t *testing.T) {
	src := `
guardrail cf {
    trigger: { TIMER(0, 1) },
    rule: { 2 < 1 },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	out, e := runProg(t, c, nil)
	if out != 0 {
		t.Errorf("constant-false rule: got %v", out)
	}
	if e.stores["bad"] != 1 {
		t.Error("action did not run")
	}
}

func TestCompileBareIdentifierIsLoad(t *testing.T) {
	src := `
guardrail bare {
    trigger: { TIMER(0, 1) },
    rule: { latency <= 100 },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	out, _ := runProg(t, c, map[string]float64{"latency": 50})
	if out != 1 {
		t.Errorf("got %v", out)
	}
	out, _ = runProg(t, c, map[string]float64{"latency": 150})
	if out != 0 {
		t.Errorf("got %v", out)
	}
}

func TestCompileRejectsUncheckedSpecs(t *testing.T) {
	bad := []string{
		`guardrail g { trigger: { TIMER(0,1) }, rule: { 5 }, action: { REPORT() } }`,
		`guardrail g { rule: { LOAD(x) < 1 }, action: { REPORT() } }`,
	}
	for _, src := range bad {
		if _, err := Source(src); err == nil {
			t.Errorf("compiled invalid spec:\n%s", src)
		}
	}
}

func TestCompileTooManyReportArgs(t *testing.T) {
	src := `
guardrail wide {
    trigger: { TIMER(0, 1) },
    rule: { LOAD(x) < 1 },
    action: { REPORT(1 < 2, 2 < 3, 3 < 4, 4 < 5, 5 < 6) }
}`
	// Checker allows it (REPORT is variadic in the language); the
	// compiler's dispatch convention caps it.
	if _, err := Source(src); err == nil || !strings.Contains(err.Error(), "at most 4") {
		t.Errorf("expected arg-count error, got %v", err)
	}
}

func TestCompileDeepExpressionFails(t *testing.T) {
	// A deeply right-nested chain over a single repeated load exceeds the
	// register file only at -O0: CSE collapses the repeats, so -O1 must
	// accept the same rule.
	depth := 16
	expr := "LOAD(a)"
	for i := 0; i < depth; i++ {
		expr = "(LOAD(b) + " + expr + ")"
	}
	src := "guardrail deep { trigger: { TIMER(0,1) }, rule: { " + expr + " < 1 }, action: { REPORT() } }"
	if _, err := SourceWith(src, Options{Level: 0}); !errors.Is(err, errRegisterFile) {
		t.Errorf("-O0: expected register-file error, got %v", err)
	}
	if _, err := Source(src); err != nil {
		t.Errorf("-O1: CSE should collapse the repeated loads: %v", err)
	}

	// With distinct keys there is nothing to share: both levels reject.
	expr = "LOAD(a)"
	for i := 0; i < depth; i++ {
		expr = fmt.Sprintf("(LOAD(b%d) + %s)", i, expr)
	}
	src = "guardrail deep { trigger: { TIMER(0,1) }, rule: { " + expr + " < 1 }, action: { REPORT() } }"
	for _, lvl := range []int{0, 1} {
		if _, err := SourceWith(src, Options{Level: lvl}); !errors.Is(err, errRegisterFile) {
			t.Errorf("-O%d: expected register-file error, got %v", lvl, err)
		}
	}
}

// TestO1AcceptsWhatO0Accepts: a sum and a product over the same N keys,
// on two rule lines. CSE keeps every load live from the first line into
// the second, and codegen cannot spill, so from N = 10 the optimized
// program overflows the register file while the unoptimized one, which
// loads each key again, fits. -O1 then builds the -O0 program and says
// so in Meta.OptLevel.
func TestO1AcceptsWhatO0Accepts(t *testing.T) {
	for _, n := range []int{8, 10, 12, 14, 16} {
		loads := make([]string, n)
		for i := range loads {
			loads[i] = fmt.Sprintf("LOAD(k%d)", i)
		}
		src := "guardrail wide { trigger: { TIMER(0,1) }, rule: { " +
			strings.Join(loads, " + ") + " < 100\n" +
			strings.Join(loads, " * ") + " > -100 }, action: { SAVE(bad, 1) } }"
		c0, err := SourceWith(src, Options{Level: 0})
		if err != nil {
			t.Fatalf("N=%d: -O0: %v", n, err)
		}
		c1, err := Source(src)
		if err != nil {
			t.Fatalf("N=%d: -O0 accepts, -O1 rejects: %v", n, err)
		}
		p0, p1 := c0[0].Program, c1[0].Program
		wantLevel := 1
		if n >= 10 {
			wantLevel = 0
			if p1.String() != p0.String() {
				t.Errorf("N=%d: fallback is not the -O0 program\n-O0:\n%s\n-O1:\n%s", n, p0, p1)
			}
		}
		if p1.Meta.OptLevel != wantLevel || p1.Meta.PreOptInsns != len(p0.Code) {
			t.Errorf("N=%d: -O1 meta = %+v, want OptLevel %d and %d insns before optimization", n, p1.Meta, wantLevel, len(p0.Code))
		}
		for _, v := range []float64{0, 1, 2} {
			env := map[string]float64{}
			for i := 0; i < n; i++ {
				env[fmt.Sprintf("k%d", i)] = v
			}
			out0, _ := runProg(t, c0[0], env)
			out1, _ := runProg(t, c1[0], env)
			if out0 != out1 {
				t.Errorf("N=%d, every key %v: -O0 %v, -O1 %v", n, v, out0, out1)
			}
		}
	}
}

func TestCompiledProgramsAlwaysVerify(t *testing.T) {
	srcs := []string{
		listing2,
		`guardrail a { trigger: { FUNCTION(f) }, rule: { !(LOAD(x) == 0) && LOAD(y) < 5 }, action: { RETRAIN(m) } }`,
		`guardrail b { trigger: { TIMER(0,1) }, rule: { min(LOAD(p), LOAD(q)) >= -3.5 }, action: { DEPRIORITIZE(t) } }`,
	}
	for _, src := range srcs {
		cs, err := Source(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, c := range cs {
			if err := vm.Verify(c.Program, vm.NumBuiltinHelpers); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
		}
	}
}

func TestGuardrailDirectCompile(t *testing.T) {
	file, err := spec.Parse(listing2)
	if err != nil {
		t.Fatal(err)
	}
	g := file.Guardrails[0]
	c, err := Guardrail(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source != g || len(c.Triggers) != 1 {
		t.Error("compiled metadata wrong")
	}
}
