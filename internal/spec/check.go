package spec

import "math"

// Builtins maps the rule-expression builtin function names to their
// arities. now() reads the kernel clock in nanoseconds.
var Builtins = map[string]int{
	"abs":  1,
	"sqrt": 1,
	"log2": 1,
	"min":  2,
	"max":  2,
	"now":  0,
}

// Check semantically validates a parsed file:
//
//   - every guardrail has at least one trigger, one rule, one action
//     (Listing 1: Guardrail ::= Property Action+, Property ::= Trigger+
//     Rule+);
//   - guardrail names are unique within the file;
//   - TIMER intervals are positive and stop (when given) is after start;
//   - every rule is a predicate: its top-level node is a comparison,
//     logical operator, or boolean literal, so "rule: { 5 }" is caught;
//   - builtin calls have correct arity, and only known builtins are
//     called;
//   - DEPRIORITIZE priorities, when constant, are within [-20, 19];
//   - feature declarations have ordinary, non-empty ranges and are not
//     repeated;
//   - temporal property declarations are predicates with well-formed
//     bounds (CheckProperty).
//
// Bare identifiers in expressions are implicit feature-store loads; the
// compiler treats IdentExpr exactly like LoadExpr.
func Check(f *File) error {
	features := make(map[string]bool)
	for _, d := range f.Features {
		if features[d.Key] {
			return errAt(d.Pos, "duplicate feature declaration for %q", d.Key)
		}
		features[d.Key] = true
		if math.IsNaN(d.Lo) || math.IsNaN(d.Hi) {
			return errAt(d.Pos, "feature %q range bounds must be ordinary numbers", d.Key)
		}
		if d.Lo > d.Hi {
			return errAt(d.Pos, "feature %q range is empty: lo %g > hi %g", d.Key, d.Lo, d.Hi)
		}
	}
	for _, d := range f.Properties {
		if err := CheckProperty(d); err != nil {
			return err
		}
	}
	names := make(map[string]bool)
	for _, g := range f.Guardrails {
		if names[g.Name] {
			return errAt(g.Pos, "duplicate guardrail name %q", g.Name)
		}
		names[g.Name] = true
		if err := CheckGuardrail(g); err != nil {
			return err
		}
	}
	return nil
}

// ParseChecked parses src and checks the result, the front half of
// every load.
func ParseChecked(src string) (*File, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	return f, nil
}

// FeatureRanges returns the file's declared feature ranges keyed by
// feature name. Files without declarations return an empty map.
func FeatureRanges(f *File) map[string]*FeatureDecl { return RangesOf(f.Features) }

// RangesOf keys feature declarations by name. Check rejects a repeat
// within one file; across the files of a deployment the first
// declaration wins, for every analysis alike.
func RangesOf(decls []*FeatureDecl) map[string]*FeatureDecl {
	out := make(map[string]*FeatureDecl, len(decls))
	for _, d := range decls {
		if _, dup := out[d.Key]; !dup {
			out[d.Key] = d
		}
	}
	return out
}

// CheckGuardrail validates a single guardrail (see Check).
func CheckGuardrail(g *Guardrail) error {
	if len(g.Triggers) == 0 {
		return errAt(g.Pos, "guardrail %q has no triggers", g.Name)
	}
	if len(g.Rules) == 0 {
		return errAt(g.Pos, "guardrail %q has no rules", g.Name)
	}
	if len(g.Actions) == 0 {
		return errAt(g.Pos, "guardrail %q has no actions", g.Name)
	}
	for _, t := range g.Triggers {
		if tt, ok := t.(*TimerTrigger); ok {
			if tt.Interval <= 0 {
				return errAt(tt.Pos, "TIMER interval must be positive, got %g", tt.Interval)
			}
			if tt.Stop != 0 && tt.Stop <= tt.Start {
				return errAt(tt.Pos, "TIMER stop time %g is not after start time %g", tt.Stop, tt.Start)
			}
		}
	}
	for _, r := range g.Rules {
		if !IsPredicate(r) {
			return errAt(r.ExprPos(), "rule %s is not a predicate (use a comparison or logical expression)", ExprString(r))
		}
		if err := checkExpr(r); err != nil {
			return err
		}
	}
	for _, a := range g.Actions {
		if err := checkAction(a); err != nil {
			return err
		}
	}
	return nil
}

// IsPredicate reports whether the expression's top-level construct
// yields a truth value. The checker uses it to validate rules and the
// compiler's lowerer uses it to pick condition lowering (direct
// conditional branches) over value lowering.
func IsPredicate(e Expr) bool {
	switch n := e.(type) {
	case *BoolLit:
		return true
	case *UnaryExpr:
		return n.Op == TokNot
	case *BinaryExpr:
		switch n.Op {
		case TokLt, TokLe, TokGt, TokGe, TokEq, TokNe:
			return true
		case TokAnd, TokOr:
			return IsPredicate(n.X) && IsPredicate(n.Y)
		}
	}
	return false
}

func checkExpr(e Expr) error {
	switch n := e.(type) {
	case *NumLit, *BoolLit, *LoadExpr, *IdentExpr:
		return nil
	case *UnaryExpr:
		return checkExpr(n.X)
	case *BinaryExpr:
		if err := checkExpr(n.X); err != nil {
			return err
		}
		return checkExpr(n.Y)
	case *CallExpr:
		arity, ok := Builtins[n.Fn]
		if !ok {
			return errAt(n.Pos, "unknown function %q", n.Fn)
		}
		if len(n.Args) != arity {
			return errAt(n.Pos, "%s takes %d argument(s), got %d", n.Fn, arity, len(n.Args))
		}
		for _, a := range n.Args {
			if err := checkExpr(a); err != nil {
				return err
			}
		}
		return nil
	default:
		return errAt(e.ExprPos(), "unsupported expression node")
	}
}

func checkAction(a Action) error {
	switch n := a.(type) {
	case *ReportAction:
		for _, e := range n.Args {
			if err := checkExpr(e); err != nil {
				return err
			}
		}
	case *ReplaceAction:
		if n.Old == n.New {
			return errAt(n.Pos, "REPLACE with identical policies %q", n.Old)
		}
	case *RetrainAction:
		// Model names are resolved by the runtime at load time.
	case *DeprioritizeAction:
		if n.Priority != nil {
			if err := checkExpr(n.Priority); err != nil {
				return err
			}
			if lit, ok := n.Priority.(*NumLit); ok {
				if lit.Value < -20 || lit.Value > 19 {
					return errAt(lit.Pos, "priority %g outside [-20, 19]", lit.Value)
				}
			}
		}
	case *SaveAction:
		return checkExpr(n.Value)
	}
	return nil
}
