package compile

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

func TestBranchFusionShrinksListing2(t *testing.T) {
	c := compileOne(t, listing2)
	if got := len(c.Program.Code); got > 8 {
		t.Errorf("listing2 compiled to %d insns, want <= 8 (optimizing pipeline)\n%s", got, c.Program)
	}
	// Exactly one conditional jump on the hot path (immediate selection
	// folds the threshold constant into the jump); no boolean
	// materialization (movi 0/movi 1 pair) before the test.
	var cmpJumps, boolOps int
	for _, in := range c.Program.Code {
		switch in.Op {
		case vm.OpJGt, vm.OpJLe, vm.OpJLt, vm.OpJGe, vm.OpJEq, vm.OpJNe,
			vm.OpJGtI, vm.OpJLeI, vm.OpJLtI, vm.OpJGeI, vm.OpJEqI, vm.OpJNeI:
			cmpJumps++
		case vm.OpBoo, vm.OpNot:
			boolOps++
		}
	}
	if cmpJumps != 1 || boolOps != 0 {
		t.Errorf("cmpJumps=%d boolOps=%d\n%s", cmpJumps, boolOps, c.Program)
	}
	// Optimization provenance is recorded for overhead accounting.
	if c.Program.Meta.OptLevel != 1 || c.Program.Meta.PostOptInsns != len(c.Program.Code) {
		t.Errorf("meta = %+v", c.Program.Meta)
	}
	if c.Program.Meta.PreOptInsns < c.Program.Meta.PostOptInsns {
		t.Errorf("optimization grew the program: %+v", c.Program.Meta)
	}
}

func TestBranchFusionConjunction(t *testing.T) {
	src := `
guardrail conj {
    trigger: { TIMER(0, 1) },
    rule: { LOAD(a) < 10 && LOAD(b) > 2 },
    action: { SAVE(bad, 1) }
}`
	c := compileOne(t, src)
	// Both conjuncts fuse to direct jumps: no OpBoo normalization.
	for _, in := range c.Program.Code {
		if in.Op == vm.OpBoo {
			t.Fatalf("conjunction not fused:\n%s", c.Program)
		}
	}
	// Semantics preserved.
	cases := []struct {
		a, b, want float64
	}{{5, 3, 1}, {15, 3, 0}, {5, 1, 0}}
	for _, cs := range cases {
		out, _ := runProg(t, c, map[string]float64{"a": cs.a, "b": cs.b})
		if out != cs.want {
			t.Errorf("a=%v b=%v: %v, want %v", cs.a, cs.b, out, cs.want)
		}
	}
}

// randKeys are the cells the random rules read: more than the register
// file holds, so a rule can need more live values than fit.
var randKeys = func() []string {
	ks := make([]string, 12)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%d", i)
	}
	return ks
}()

// randExpr builds a random predicate over randKeys with the given
// recursion depth.
func randExpr(rng *rand.Rand, depth int) string {
	arith := func() string { return randArith(rng, depth) }
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	cmp := arith() + " " + ops[rng.Intn(len(ops))] + " " + arith()
	if depth <= 0 {
		return cmp
	}
	switch rng.Intn(4) {
	case 0:
		return "(" + randExpr(rng, depth-1) + " && " + randExpr(rng, depth-1) + ")"
	case 1:
		return "(" + randExpr(rng, depth-1) + " || " + randExpr(rng, depth-1) + ")"
	case 2:
		return "!(" + randExpr(rng, depth-1) + ")"
	default:
		return cmp
	}
}

func randArith(rng *rand.Rand, depth int) string {
	leaf := func() string {
		if rng.Intn(2) == 0 {
			return "LOAD(" + randKeys[rng.Intn(len(randKeys))] + ")"
		}
		// Small integer literals keep float math exact.
		return []string{"0", "1", "2", "3", "5", "-2"}[rng.Intn(6)]
	}
	if depth <= 0 {
		return leaf()
	}
	switch rng.Intn(5) {
	case 0:
		return "(" + randArith(rng, depth-1) + " + " + randArith(rng, depth-1) + ")"
	case 1:
		return "(" + randArith(rng, depth-1) + " - " + randArith(rng, depth-1) + ")"
	case 2:
		return "(" + randArith(rng, depth-1) + " * " + randArith(rng, depth-1) + ")"
	case 3:
		return "min(" + randArith(rng, depth-1) + ", " + randArith(rng, depth-1) + ")"
	default:
		return leaf()
	}
}

// evalExpr is a reference interpreter for the spec expression language,
// independent of the VM.
func evalExpr(e spec.Expr, env map[string]float64) float64 {
	b2f := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	switch n := e.(type) {
	case *spec.NumLit:
		return n.Value
	case *spec.BoolLit:
		return b2f(n.Value)
	case *spec.LoadExpr:
		return env[n.Key]
	case *spec.IdentExpr:
		return env[n.Name]
	case *spec.UnaryExpr:
		x := evalExpr(n.X, env)
		if n.Op == spec.TokMinus {
			return -x
		}
		return b2f(x == 0)
	case *spec.CallExpr:
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			args[i] = evalExpr(a, env)
		}
		switch n.Fn {
		case "abs":
			return math.Abs(args[0])
		case "min":
			return math.Min(args[0], args[1])
		case "max":
			return math.Max(args[0], args[1])
		case "sqrt":
			if args[0] < 0 {
				return 0
			}
			return math.Sqrt(args[0])
		case "log2":
			if args[0] <= 0 {
				return 0
			}
			return math.Log2(args[0])
		}
		return 0
	case *spec.BinaryExpr:
		x := evalExpr(n.X, env)
		switch n.Op {
		case spec.TokAnd:
			if x == 0 {
				return 0
			}
			return b2f(evalExpr(n.Y, env) != 0)
		case spec.TokOr:
			if x != 0 {
				return 1
			}
			return b2f(evalExpr(n.Y, env) != 0)
		}
		y := evalExpr(n.Y, env)
		switch n.Op {
		case spec.TokPlus:
			return x + y
		case spec.TokMinus:
			return x - y
		case spec.TokStar:
			return x * y
		case spec.TokSlash:
			if y == 0 {
				return 0
			}
			return x / y
		case spec.TokLt:
			return b2f(x < y)
		case spec.TokLe:
			return b2f(x <= y)
		case spec.TokGt:
			return b2f(x > y)
		case spec.TokGe:
			return b2f(x >= y)
		case spec.TokEq:
			return b2f(x == y)
		case spec.TokNe:
			return b2f(x != y)
		}
	}
	return 0
}

// TestLiteralRulesCompileAndAgree pins the shapes where a boolean
// literal leaves a jmp-only block under a conditional branch. The first
// (a live rule followed by a constant-false one) compiled at -O0 and
// failed at -O1 with an assembler-internal "label is not strictly
// forward" error; the second failed at both levels. The last failed the
// same way at -O1 only: DCE collapsed the second rule's branch into a
// jmp after its predecessor had already been threaded, and dropped the
// block from the layout with that predecessor still jumping to it.
func TestLiteralRulesCompileAndAgree(t *testing.T) {
	for _, rules := range []string{
		"LOAD(k0) > 2  false",
		"(LOAD(k0) > 2 && false) || LOAD(k1) < 1",
		"false && false",
		"true || LOAD(k0) > 1",
		"!(LOAD(k0) > 2 || true)",
		"LOAD(k0) > 2  true  LOAD(k1) < 1",
		"LOAD(k0) > 2  !(LOAD(k0) > 3 && 3 < 1)",
	} {
		src := "guardrail lit { trigger: { TIMER(0,1) }, rule: { " + rules + " }, action: { SAVE(bad, 1) } }"
		file, err := spec.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", rules, err)
		}
		g := file.Guardrails[0]
		for level := 0; level <= 1; level++ {
			c, err := GuardrailWith(g, Options{Level: level})
			if err != nil {
				t.Errorf("-O%d failed on %q: %v", level, rules, err)
				continue
			}
			for k0 := -1.0; k0 <= 4; k0++ {
				env := map[string]float64{"k0": k0, "k1": 3 - k0}
				want := 1.0
				for _, r := range g.Rules {
					if evalExpr(r, env) == 0 {
						want = 0
					}
				}
				if out, _ := runProg(t, c, env); out != want {
					t.Errorf("-O%d %q: VM says %v, reference says %v (env %v)\n%s", level, rules, out, want, env, c.Program)
				}
			}
		}
	}
}

// TestRandomRulesCompileAndAgree cross-checks the full pipeline: random
// guardrails of two to eight rule lines over twelve keys are compiled
// at both -O0 (straight lowering + codegen) and -O1 (the IR pass
// pipeline) and executed on the VM across several random finite cell
// environments;
// both truth values must match the reference interpreter, so every IR
// pass is semantics-preserving on the whole sampled expression space.
// Every guardrail -O0 accepts, -O1 accepts too.
func TestRandomRulesCompileAndAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		rules := make([]string, 2+rng.Intn(7))
		for i := range rules {
			rules[i] = randExpr(rng, 2)
		}
		exprSrc := strings.Join(rules, "; ")
		src := "guardrail fuzz { trigger: { TIMER(0,1) }, rule: { " + exprSrc + " }, action: { SAVE(bad, 1) } }"
		file, err := spec.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, exprSrc, err)
		}
		g := file.Guardrails[0]
		// Overflowing the register file is a legitimate rejection for
		// very wide random rules; anything else is a compiler bug. (This
		// skip once took any error, and hid a zero-offset-branch
		// assembler failure on every trial with a constant-folded
		// sub-comparison, about one in fifteen.)
		o0, o0err := GuardrailWith(g, Options{Level: 0})
		o1, o1err := GuardrailWith(g, Options{Level: 1})
		for level, err := range []error{o0err, o1err} {
			if err != nil && !errors.Is(err, errRegisterFile) {
				t.Fatalf("trial %d: -O%d failed on %q: %v", trial, level, exprSrc, err)
			}
		}
		if o0err == nil && o1err != nil {
			t.Fatalf("trial %d: -O0 accepts %q, -O1 rejects it: %v", trial, exprSrc, o1err)
		}
		if o1err != nil {
			continue
		}
		// -O0 may overflow the register file where -O1 fits (CSE and DCE
		// shrink live ranges).
		if o1.Program.Meta.PostOptInsns > o1.Program.Meta.PreOptInsns {
			t.Fatalf("trial %d: -O1 grew %q from %d to %d insns", trial, exprSrc,
				o1.Program.Meta.PreOptInsns, o1.Program.Meta.PostOptInsns)
		}
		for round := 0; round < 4; round++ {
			env := map[string]float64{}
			for _, k := range randKeys {
				env[k] = float64(rng.Intn(7) - 3)
			}
			want := true
			for _, r := range g.Rules {
				want = want && evalExpr(r, env) != 0
			}
			out1, _ := runProg(t, o1, env)
			if (out1 != 0) != want {
				t.Fatalf("trial %d: -O1 VM says %v, reference says %v for %q (env %v)\n%s",
					trial, out1 != 0, want, exprSrc, env, o1.Program)
			}
			if o0err != nil {
				continue
			}
			out0, _ := runProg(t, o0, env)
			if (out0 != 0) != want {
				t.Fatalf("trial %d: -O0 VM says %v, reference says %v for %q (env %v)\n%s",
					trial, out0 != 0, want, exprSrc, env, o0.Program)
			}
		}
	}
}
