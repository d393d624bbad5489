package gen

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an arithmetic expression over feature-store keys, in the
// subset of the spec language the generators use. Op is 'k' (LOAD of
// Key), 'c' (the constant C), or one of '+', '-', '*', '/'.
type Expr struct {
	Op   byte
	Key  string
	C    float64
	L, R *Expr
}

// Load, Const, and Bin build expressions.
func Load(key string) *Expr         { return &Expr{Op: 'k', Key: key} }
func Const(c float64) *Expr         { return &Expr{Op: 'c', C: c} }
func Bin(op byte, l, r *Expr) *Expr { return &Expr{Op: op, L: l, R: r} }

// Num renders a constant the way the spec lexer reads it back to the
// identical float64 (shortest round-trip decimal, no exponent).
func Num(c float64) string { return strconv.FormatFloat(c, 'f', -1, 64) }

// Text renders the expression in spec syntax, fully parenthesised so
// its evaluation order is the tree's.
func (e *Expr) Text() string {
	switch e.Op {
	case 'k':
		return "LOAD(" + e.Key + ")"
	case 'c':
		if e.C < 0 {
			return "(" + Num(e.C) + ")"
		}
		return Num(e.C)
	default:
		return "(" + e.L.Text() + " " + string(e.Op) + " " + e.R.Text() + ")"
	}
}

// Keys appends the keys the expression loads, in first-use order.
func (e *Expr) Keys(seen map[string]bool, out []string) []string {
	switch e.Op {
	case 'k':
		if !seen[e.Key] {
			seen[e.Key] = true
			out = append(out, e.Key)
		}
	case 'c':
	default:
		out = e.L.Keys(seen, out)
		out = e.R.Keys(seen, out)
	}
	return out
}

// Rule is one comparison of a guardrail's rule conjunction: it holds
// when Left Cmp Bound is true. Cmp is "<=", "<", ">=" or ">".
type Rule struct {
	Left  *Expr
	Cmp   string
	Bound *Expr
}

// Text renders the rule in spec syntax.
func (r Rule) Text() string { return r.Left.Text() + " " + r.Cmp + " " + r.Bound.Text() }

// Save is one SAVE(Key, Value) action.
type Save struct {
	Key   string
	Value *Expr
}

// Guardrail is one generated guardrail. The program under test gets
// Text(); the oracle reads the fields.
type Guardrail struct {
	Name string
	// Site is the FUNCTION trigger site; Timer, when Site is empty, the
	// TIMER(start, interval) trigger in simulated nanoseconds.
	Site  string
	Timer [2]float64
	Rules []Rule
	// Actions on violation, in this order: every Save, then one
	// REPORT(Report...) when HasReport.
	Saves     []Save
	HasReport bool
	Report    []*Expr
}

// Text renders the guardrail in spec syntax.
func (g *Guardrail) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guardrail %s {\n    trigger: { ", g.Name)
	if g.Site != "" {
		fmt.Fprintf(&b, "FUNCTION(%s)", g.Site)
	} else {
		fmt.Fprintf(&b, "TIMER(%s, %s)", Num(g.Timer[0]), Num(g.Timer[1]))
	}
	b.WriteString(" },\n    rule: {\n")
	for _, r := range g.Rules {
		fmt.Fprintf(&b, "        %s\n", r.Text())
	}
	b.WriteString("    },\n    action: {\n")
	for _, s := range g.Saves {
		fmt.Fprintf(&b, "        SAVE(%s, %s)\n", s.Key, s.Value.Text())
	}
	if g.HasReport {
		args := make([]string, len(g.Report))
		for i, a := range g.Report {
			args[i] = a.Text()
		}
		fmt.Fprintf(&b, "        REPORT(%s)\n", strings.Join(args, ", "))
	}
	b.WriteString("    }\n}\n")
	return b.String()
}
