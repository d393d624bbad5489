package spec

import (
	"fmt"
	"math"
	"sort"
)

// Temporal property declarations. Where a guardrail's rules constrain
// one evaluation, a property constrains the *dynamics* of a whole
// deployment: the sequence of feature-store states produced as monitors
// fire. Properties are declared at the top level of a spec file —
//
//	assert always LOAD(mode) <= 1
//	assert eventually LOAD(quarantined) == 1 within 4
//
// — or supplied as strings in a deployment manifest. They are advisory
// metadata for the bounded model checker (internal/spec/modelcheck);
// the compiler and runtime ignore them.

// PropertyKind classifies a temporal property.
type PropertyKind int

// Property kinds.
const (
	// PropAlways asserts the predicate holds in every reachable
	// deployment state (safety).
	PropAlways PropertyKind = iota
	// PropEventually asserts every execution makes the predicate hold
	// within a bounded number of monitor firings (bounded liveness).
	PropEventually
)

// String names the kind as it appears in source.
func (k PropertyKind) String() string {
	if k == PropEventually {
		return "eventually"
	}
	return "always"
}

// PropertyDecl is one declared temporal property.
type PropertyDecl struct {
	Kind PropertyKind
	// Pred is the state predicate, over feature-store keys.
	Pred Expr
	// Within bounds the number of transition steps for PropEventually
	// (0 and unused for PropAlways).
	Within int
	Pos    Pos
}

// String renders the declaration in source form.
func (d *PropertyDecl) String() string {
	if d.Kind == PropEventually {
		return fmt.Sprintf("assert eventually %s within %d", ExprString(d.Pred), d.Within)
	}
	return fmt.Sprintf("assert always %s", ExprString(d.Pred))
}

// parsePropertyDecl parses a top-level property declaration, positioned
// on the "assert" keyword:
//
//	assert always <pred>
//	assert eventually <pred> within <n>
func (p *Parser) parsePropertyDecl() (*PropertyDecl, error) {
	pos := p.cur.Pos
	if err := p.expectIdent("assert"); err != nil {
		return nil, err
	}
	return p.parsePropertyBody(pos)
}

// parsePropertyBody parses the declaration after the "assert" keyword.
func (p *Parser) parsePropertyBody(pos Pos) (*PropertyDecl, error) {
	if p.cur.Kind != TokIdent || (p.cur.Text != "always" && p.cur.Text != "eventually") {
		return nil, errAt(p.cur.Pos, "expected \"always\" or \"eventually\", found %s", p.describeCur())
	}
	d := &PropertyDecl{Pos: pos}
	if p.cur.Text == "eventually" {
		d.Kind = PropEventually
	}
	p.next()
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	d.Pred = pred
	if d.Kind == PropEventually {
		if err := p.expectIdent("within"); err != nil {
			return nil, err
		}
		t, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		if t.Num < 1 || t.Num != math.Trunc(t.Num) || t.Num > 1<<20 {
			return nil, errAt(t.Pos, "\"within\" bound must be a positive integer step count, got %s", t.Text)
		}
		d.Within = int(t.Num)
	}
	return d, nil
}

// ParseProperty parses one property given as free-standing text, the
// form deployment manifests use ("always <pred>" or "eventually <pred>
// within <n>"; a leading "assert" is accepted). The result is
// semantically checked.
func ParseProperty(src string) (*PropertyDecl, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	if p.cur.Kind == TokIdent && p.cur.Text == "assert" {
		p.next()
	}
	d, err := p.parsePropertyBody(Pos{1, 1})
	if err != nil {
		return nil, err
	}
	if p.cur.Kind != TokEOF {
		return nil, errAt(p.cur.Pos, "unexpected %s after property", p.describeCur())
	}
	if err := CheckProperty(d); err != nil {
		return nil, err
	}
	return d, nil
}

// CheckProperty semantically validates one property declaration: the
// predicate must be a predicate expression (comparison, logical
// operator, or boolean literal) with well-formed builtin calls, and an
// "eventually" bound must be positive.
func CheckProperty(d *PropertyDecl) error {
	if !IsPredicate(d.Pred) {
		return errAt(d.Pred.ExprPos(), "property %s is not a predicate (use a comparison or logical expression)", ExprString(d.Pred))
	}
	if err := checkExpr(d.Pred); err != nil {
		return err
	}
	if d.Kind == PropEventually && d.Within < 1 {
		return errAt(d.Pos, "eventually property needs a positive \"within\" step bound")
	}
	return nil
}

// WalkExpr calls visit on e and every sub-expression, parents first,
// left to right.
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch n := e.(type) {
	case *UnaryExpr:
		WalkExpr(n.X, visit)
	case *BinaryExpr:
		WalkExpr(n.X, visit)
		WalkExpr(n.Y, visit)
	case *CallExpr:
		for _, a := range n.Args {
			WalkExpr(a, visit)
		}
	}
}

// ExprKeys returns the sorted feature-store keys an expression reads
// (LOAD(k) and bare identifiers alike).
func ExprKeys(e Expr) []string {
	set := map[string]bool{}
	WalkExpr(e, func(e Expr) {
		switch n := e.(type) {
		case *LoadExpr:
			set[n.Key] = true
		case *IdentExpr:
			set[n.Name] = true
		}
	})
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
