package spec

import (
	"fmt"
	"strings"
)

// File is a parsed specification source: one or more guardrails, plus
// any top-level feature range declarations.
type File struct {
	Guardrails []*Guardrail
	// Features are the file's feature range declarations, in source
	// order. They are advisory metadata for static analysis (vet's GV010
	// threshold check, the deployment interference analyzer's input
	// refinement); the compiler and runtime ignore them.
	Features []*FeatureDecl
	// Properties are the file's declared temporal properties
	// ("assert always …" / "assert eventually … within K"), in source
	// order. The bounded model checker (internal/spec/modelcheck) proves
	// or refutes them against the whole deployment; the compiler and
	// runtime ignore them.
	Properties []*PropertyDecl
}

// FeatureDecl declares the legal range of a feature-store key:
//
//	feature false_submit_rate range(0, 1)
//
// The declaration is a contract about the producer (the instrumented
// subsystem or another guardrail's SAVE): consumers may assume LOADs of
// the key yield ordinary values in [Lo, Hi]. Static analyses use it to
// tighten value intervals; nothing enforces it at runtime.
type FeatureDecl struct {
	Key    string
	Lo, Hi float64
	Pos    Pos
}

// String renders the declaration in source form.
func (d *FeatureDecl) String() string {
	return fmt.Sprintf("feature %s range(%g, %g)", d.Key, d.Lo, d.Hi)
}

// Guardrail is one named guardrail: triggers say when to evaluate,
// rules say what must hold, actions say what to do on violation.
type Guardrail struct {
	Name     string
	Triggers []Trigger
	Rules    []Expr
	Actions  []Action
	Pos      Pos
}

// Trigger determines when rules are evaluated (§4.1).
type Trigger interface {
	trigger()
	fmt.Stringer
}

// TimerTrigger evaluates rules periodically:
// TIMER(start, interval[, stop]), times in nanoseconds. Start may be the
// symbolic identifier start_time (= 0, boot) and stop the symbolic
// stop_time (= 0, forever).
type TimerTrigger struct {
	Start    float64
	Interval float64
	Stop     float64 // 0 = forever
	Pos      Pos
}

func (*TimerTrigger) trigger() {}

// String renders the trigger in source form.
func (t *TimerTrigger) String() string {
	if t.Stop > 0 {
		return fmt.Sprintf("TIMER(%g, %g, %g)", t.Start, t.Interval, t.Stop)
	}
	return fmt.Sprintf("TIMER(%g, %g)", t.Start, t.Interval)
}

// FuncTrigger evaluates rules whenever a kernel hook site fires:
// FUNCTION(site_name).
type FuncTrigger struct {
	Site string
}

func (*FuncTrigger) trigger() {}

// String renders the trigger in source form.
func (t *FuncTrigger) String() string { return fmt.Sprintf("FUNCTION(%s)", t.Site) }

// Action is a corrective response to a property violation (§4.2).
type Action interface {
	action()
	fmt.Stringer
}

// ReportAction logs system context on violation: REPORT(expr, ...).
// A1 in the paper's taxonomy.
type ReportAction struct {
	Args []Expr
}

func (*ReportAction) action() {}

// String renders the action in source form.
func (a *ReportAction) String() string {
	parts := make([]string, len(a.Args))
	for i, e := range a.Args {
		parts[i] = ExprString(e)
	}
	return fmt.Sprintf("REPORT(%s)", strings.Join(parts, ", "))
}

// ReplaceAction swaps a misbehaving learned policy for a fallback:
// REPLACE(old_policy, new_policy). A2.
type ReplaceAction struct {
	Old string
	New string
	Pos Pos
}

func (*ReplaceAction) action() {}

// String renders the action in source form.
func (a *ReplaceAction) String() string { return fmt.Sprintf("REPLACE(%s, %s)", a.Old, a.New) }

// RetrainAction queues asynchronous retraining of a model: RETRAIN(model).
// A3.
type RetrainAction struct {
	Model string
	Pos   Pos
}

func (*RetrainAction) action() {}

// String renders the action in source form.
func (a *RetrainAction) String() string { return fmt.Sprintf("RETRAIN(%s)", a.Model) }

// DeprioritizeAction demotes (or with priority 20, kills) a task group:
// DEPRIORITIZE(target[, priority]). A4.
type DeprioritizeAction struct {
	Target   string
	Priority Expr // nil = runtime default demotion
	Pos      Pos
}

func (*DeprioritizeAction) action() {}

// String renders the action in source form.
func (a *DeprioritizeAction) String() string {
	if a.Priority != nil {
		return fmt.Sprintf("DEPRIORITIZE(%s, %s)", a.Target, ExprString(a.Priority))
	}
	return fmt.Sprintf("DEPRIORITIZE(%s)", a.Target)
}

// SaveAction writes a feature-store cell: SAVE(key, expr). Used for
// control knobs the policies read back (as in Listing 2's
// SAVE(ml_enabled, false)).
type SaveAction struct {
	Key   string
	Value Expr
	Pos   Pos
}

func (*SaveAction) action() {}

// String renders the action in source form.
func (a *SaveAction) String() string {
	return fmt.Sprintf("SAVE(%s, %s)", a.Key, ExprString(a.Value))
}

// Expr is a rule expression node. Expressions are numeric with the
// truthiness convention 0 = false.
type Expr interface {
	expr()
	ExprPos() Pos
}

// NumLit is a numeric literal.
type NumLit struct {
	Value float64
	Pos   Pos
}

// BoolLit is true/false (compiled as 1/0).
type BoolLit struct {
	Value bool
	Pos   Pos
}

// LoadExpr reads a feature-store key: LOAD(key).
type LoadExpr struct {
	Key string
	Pos Pos
}

// IdentExpr is a bare identifier operand; the checker resolves it as an
// implicit LOAD of that key.
type IdentExpr struct {
	Name string
	Pos  Pos
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Op  TokenKind // TokMinus or TokNot
	X   Expr
	Pos Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   TokenKind
	X, Y Expr
	Pos  Pos
}

// CallExpr is a builtin function call: abs(x), min(x,y), max(x,y),
// sqrt(x), log2(x), now().
type CallExpr struct {
	Fn   string
	Args []Expr
	Pos  Pos
}

func (*NumLit) expr()     {}
func (*BoolLit) expr()    {}
func (*LoadExpr) expr()   {}
func (*IdentExpr) expr()  {}
func (*UnaryExpr) expr()  {}
func (*BinaryExpr) expr() {}
func (*CallExpr) expr()   {}

// ExprPos returns the node's source position.
func (e *NumLit) ExprPos() Pos { return e.Pos }

// ExprPos returns the node's source position.
func (e *BoolLit) ExprPos() Pos { return e.Pos }

// ExprPos returns the node's source position.
func (e *LoadExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the node's source position.
func (e *IdentExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the node's source position.
func (e *UnaryExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the node's source position.
func (e *BinaryExpr) ExprPos() Pos { return e.Pos }

// ExprPos returns the node's source position.
func (e *CallExpr) ExprPos() Pos { return e.Pos }

// ExprString renders an expression in source form (fully parenthesized
// for unambiguity).
func ExprString(e Expr) string {
	switch n := e.(type) {
	case *NumLit:
		return fmt.Sprintf("%g", n.Value)
	case *BoolLit:
		if n.Value {
			return "true"
		}
		return "false"
	case *LoadExpr:
		return fmt.Sprintf("LOAD(%s)", n.Key)
	case *IdentExpr:
		return n.Name
	case *UnaryExpr:
		op := "-"
		if n.Op == TokNot {
			op = "!"
		}
		return op + ExprString(n.X)
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", ExprString(n.X), binOpText(n.Op), ExprString(n.Y))
	case *CallExpr:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", n.Fn, strings.Join(parts, ", "))
	default:
		return "?"
	}
}

func binOpText(op TokenKind) string {
	switch op {
	case TokPlus:
		return "+"
	case TokMinus:
		return "-"
	case TokStar:
		return "*"
	case TokSlash:
		return "/"
	case TokLt:
		return "<"
	case TokLe:
		return "<="
	case TokGt:
		return ">"
	case TokGe:
		return ">="
	case TokEq:
		return "=="
	case TokNe:
		return "!="
	case TokAnd:
		return "&&"
	case TokOr:
		return "||"
	default:
		return op.String()
	}
}

// String renders the guardrail in canonical source form.
func (g *Guardrail) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guardrail %s {\n  trigger: {\n", g.Name)
	for _, t := range g.Triggers {
		fmt.Fprintf(&b, "    %s\n", t)
	}
	b.WriteString("  },\n  rule: {\n")
	for _, r := range g.Rules {
		fmt.Fprintf(&b, "    %s\n", ExprString(r))
	}
	b.WriteString("  },\n  action: {\n")
	for _, a := range g.Actions {
		fmt.Fprintf(&b, "    %s\n", a)
	}
	b.WriteString("  }\n}\n")
	return b.String()
}
