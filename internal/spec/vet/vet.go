// Package vet lints checked guardrail specifications for constructs
// that are well-formed and compilable but almost certainly not what the
// author meant: rules that can never fail (so the guardrail silently
// watches nothing), rules that can never hold (so the action fires on
// every evaluation), mutually contradictory rules, tautological
// comparisons, feedback loops between a guardrail's SAVE actions and
// its own rules, divisions by a constant zero, and constant thresholds
// that lie outside a feature's declared range.
//
// Each finding is a Diagnostic with a stable code (GV001…), a severity,
// and the source position of the offending construct. Warn-severity
// diagnostics indicate a spec that is very likely wrong; Info ones flag
// conventions worth a look (e.g. a SAVEd key no rule reads — often a
// deliberate control knob for the instrumented policy, as in the
// paper's ml_enabled example).
//
// The linter reasons over ordinary real values only: it does not model
// NaN propagation. That is deliberate — vet is a heuristic authoring
// aid, while the VM verifier (internal/vm) is the sound layer that
// proves trap-freedom over the full float64 domain including NaN.
package vet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
)

// The linter's findings share the type, and so the rendering, of the
// deployment analyzer's GI and the model checker's GM findings. Warn
// flags a construct that is very likely a spec bug — a spec "lints
// clean" when it produces no Warn diagnostic; Info flags a convention
// worth a look.
type (
	Diagnostic = interfere.Diagnostic
	Severity   = interfere.Severity
)

// Severities.
const (
	Info = interfere.Info
	Warn = interfere.Warn
)

// Diagnostic codes.
const (
	CodeAlwaysTrue      = "GV001" // rule is always true: guards nothing
	CodeAlwaysFalse     = "GV002" // rule is always false: fires every evaluation
	CodeContradiction   = "GV003" // two rules cannot hold together
	CodeTautologicalCmp = "GV004" // comparison with identical sides
	CodeUnreadKey       = "GV005" // SAVEd key never LOADed in the file
	CodeFeedbackLoop    = "GV006" // guardrail SAVEs a key its own rules LOAD
	CodeDeadActions     = "GV007" // every rule always true: actions never fire
	CodeDuplicateRule   = "GV008" // identical rule repeated
	CodeConstZeroDiv    = "GV009" // division by constant zero
	CodeThresholdRange  = "GV010" // constant threshold outside the feature's declared range
	CodeUnknownGlobal   = "GV011" // LOAD of a *_global key with no registered aggregate
)

// Config carries deployment context the spec file alone cannot provide.
type Config struct {
	// Aggregates lists the cross-shard aggregate names registered in the
	// deployment (featurestore.RegisterAggregate): registering "err_rate"
	// publishes "err_rate_global". nil means the aggregate set is unknown
	// and the GV011 check is skipped; an empty non-nil slice means the
	// deployment is known to register none, so every *_global LOAD flags.
	Aggregates []string
}

// File lints every guardrail in a checked file, plus the cross-guardrail
// checks (GV005 consults LOADs from all guardrails: one guardrail's
// SAVEd knob may be read by another's rules). Diagnostics are ordered by
// source position, then code.
func File(f *spec.File) []Diagnostic { return FileConfig(f, nil) }

// FileConfig lints like File plus the checks that need deployment
// context from cfg (GV011: a LOAD of a *_global aggregate key the
// deployment never registers reads a cell no aggregation step ever
// writes, so the rule evaluates against a permanent zero).
func FileConfig(f *spec.File, cfg *Config) []Diagnostic {
	var ds []Diagnostic
	loaded := map[string]bool{}
	for _, g := range f.Guardrails {
		for _, r := range g.Rules {
			for _, k := range spec.ExprKeys(r) {
				loaded[k] = true
			}
		}
		for _, a := range g.Actions {
			for _, e := range actionExprs(a) {
				for _, k := range spec.ExprKeys(e) {
					loaded[k] = true
				}
			}
		}
	}
	features := spec.FeatureRanges(f)
	for _, g := range f.Guardrails {
		ds = append(ds, lintGuardrail(g, loaded, features)...)
		if cfg != nil && cfg.Aggregates != nil {
			ds = append(ds, lintGlobalLoads(g, cfg.Aggregates)...)
		}
	}
	sortDiags(ds)
	return ds
}

// UnknownGlobals is FileConfig's GV011 check alone, for the deployment
// gate, which folds just these findings into its interference report.
func UnknownGlobals(f *spec.File, aggregates []string) []Diagnostic {
	var ds []Diagnostic
	for _, g := range f.Guardrails {
		ds = append(ds, lintGlobalLoads(g, aggregates)...)
	}
	sortDiags(ds)
	return ds
}

// lintGlobalLoads reports GV011: a LOAD of a *_global key whose base
// name is not a registered aggregate. The aggregation step only ever
// broadcasts into global cells derived from registered names
// (featurestore.GlobalKey), so an unregistered global key is a cell
// nothing writes — the LOAD reads 0 forever, usually a typo for a
// registered aggregate or a manifest missing a registration.
func lintGlobalLoads(g *spec.Guardrail, aggregates []string) []Diagnostic {
	registered := map[string]bool{}
	for _, a := range aggregates {
		registered[a] = true
	}
	var ds []Diagnostic
	seen := map[string]bool{}
	check := func(e spec.Expr) {
		key, ok := loadKey(e)
		if !ok || !strings.HasSuffix(key, "_global") || seen[key] {
			return
		}
		if registered[strings.TrimSuffix(key, "_global")] {
			return
		}
		seen[key] = true
		ds = append(ds, Diagnostic{Code: CodeUnknownGlobal, Severity: Warn,
			Pos: e.ExprPos(), Guardrail: g.Name,
			Message: fmt.Sprintf("LOAD(%s) reads a cross-shard aggregate the deployment never registers: no aggregation step writes this cell, so it is always 0", key)})
	}
	for _, r := range g.Rules {
		spec.WalkExpr(r, check)
	}
	for _, a := range g.Actions {
		for _, e := range actionExprs(a) {
			spec.WalkExpr(e, check)
		}
	}
	return ds
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}

func lintGuardrail(g *spec.Guardrail, fileLoaded map[string]bool, features map[string]*spec.FeatureDecl) []Diagnostic {
	var ds []Diagnostic
	emit := func(code string, sev Severity, pos spec.Pos, format string, args ...any) {
		ds = append(ds, Diagnostic{Code: code, Severity: sev, Pos: pos,
			Guardrail: g.Name, Message: fmt.Sprintf(format, args...)})
	}

	allTrue := len(g.Rules) > 0
	for i, r := range g.Rules {
		if v, ok := compile.ConstEval(r); ok {
			if v != 0 {
				emit(CodeAlwaysTrue, Warn, r.ExprPos(),
					"rule %s is always true: it can never be violated", spec.ExprString(r))
			} else {
				emit(CodeAlwaysFalse, Warn, r.ExprPos(),
					"rule %s is always false: the action fires on every evaluation", spec.ExprString(r))
				allTrue = false
			}
		} else {
			allTrue = false
		}
		if j := slices.IndexFunc(g.Rules[:i], func(prev spec.Expr) bool { return sameExpr(prev, r) }); j >= 0 {
			emit(CodeDuplicateRule, Warn, r.ExprPos(),
				"rule %s duplicates the rule at %s", spec.ExprString(r), g.Rules[j].ExprPos())
		}
		spec.WalkExpr(r, func(e spec.Expr) {
			checkTautologicalCmp(e, emit)
			checkConstZeroDiv(e, emit)
		})
		checkThresholdRange(r, features, emit)
	}
	if allTrue {
		emit(CodeDeadActions, Warn, g.Pos,
			"every rule is always true, so the guardrail's actions can never fire")
	}
	checkContradictions(g, emit)

	saved := map[string]spec.Pos{}
	ownLoads := map[string]bool{}
	for _, r := range g.Rules {
		for _, k := range spec.ExprKeys(r) {
			ownLoads[k] = true
		}
	}
	for _, a := range g.Actions {
		for _, e := range actionExprs(a) {
			spec.WalkExpr(e, func(e spec.Expr) {
				checkConstZeroDiv(e, emit)
			})
		}
		sa, ok := a.(*spec.SaveAction)
		if !ok {
			continue
		}
		if _, dup := saved[sa.Key]; !dup {
			saved[sa.Key] = sa.Pos
		}
		if ownLoads[sa.Key] {
			emit(CodeFeedbackLoop, Warn, sa.Pos,
				"SAVE(%s, …) writes a key this guardrail's own rules LOAD: the action changes the property it enforces (feedback loop)", sa.Key)
		}
	}
	for k, pos := range saved {
		if !fileLoaded[k] {
			emit(CodeUnreadKey, Info, pos,
				"SAVEd key %q is never LOADed in this file (fine if it is a control knob the instrumented policy reads)", k)
		}
	}
	return ds
}

// checkTautologicalCmp flags comparisons whose two sides render to the
// same source text (sameExpr): x == x, LOAD(k) <= LOAD(k), and the like. Reflexive
// ==/<=/>= are always true and <//>//!= always false (over ordinary
// values; NaN is out of scope here — see the package comment).
func checkTautologicalCmp(e spec.Expr, emit func(string, Severity, spec.Pos, string, ...any)) {
	b, ok := e.(*spec.BinaryExpr)
	if !ok {
		return
	}
	switch b.Op {
	case spec.TokEq, spec.TokNe, spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe:
	default:
		return
	}
	if !sameExpr(b.X, b.Y) {
		return
	}
	outcome := "always true"
	switch b.Op {
	case spec.TokNe, spec.TokLt, spec.TokGt:
		outcome = "always false"
	}
	emit(CodeTautologicalCmp, Warn, b.Pos,
		"comparison %s has identical sides: %s", spec.ExprString(b), outcome)
}

// sameExpr reports whether two expressions render to the same source
// text (spec.ExprString) without rendering them: node by node, numbers
// by their %g text, which tells every float64 apart but reads all NaNs
// alike, and unary operators by their symbol. Nodes of different kinds
// count as different; their renderings can only meet in trees the
// parser never builds, such as a negative literal.
func sameExpr(a, b spec.Expr) bool {
	switch x := a.(type) {
	case *spec.NumLit:
		y, ok := b.(*spec.NumLit)
		return ok && (math.Float64bits(x.Value) == math.Float64bits(y.Value) || math.IsNaN(x.Value) && math.IsNaN(y.Value))
	case *spec.BoolLit:
		y, ok := b.(*spec.BoolLit)
		return ok && x.Value == y.Value
	case *spec.LoadExpr:
		y, ok := b.(*spec.LoadExpr)
		return ok && x.Key == y.Key
	case *spec.IdentExpr:
		y, ok := b.(*spec.IdentExpr)
		return ok && x.Name == y.Name
	case *spec.UnaryExpr:
		y, ok := b.(*spec.UnaryExpr)
		return ok && (x.Op == spec.TokNot) == (y.Op == spec.TokNot) && sameExpr(x.X, y.X)
	case *spec.BinaryExpr:
		y, ok := b.(*spec.BinaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.X, y.X) && sameExpr(x.Y, y.Y)
	case *spec.CallExpr:
		y, ok := b.(*spec.CallExpr)
		return ok && x.Fn == y.Fn && slices.EqualFunc(x.Args, y.Args, sameExpr)
	}
	return false
}

// checkThresholdRange flags GV010: a simple comparison rule whose
// constant threshold lies strictly outside the feature's declared range
// (reusing the interval recognition that powers GV003). Such a rule is
// either vacuous (every in-range value satisfies it) or unsatisfiable
// (no in-range value does) — both mean the threshold and the
// declaration disagree about the feature's units or scale.
func checkThresholdRange(r spec.Expr, features map[string]*spec.FeatureDecl,
	emit func(string, Severity, spec.Pos, string, ...any)) {
	key, lo, hi, ok := simpleKeyConstraint(r)
	if !ok {
		return
	}
	d, declared := features[key]
	if !declared {
		return
	}
	switch {
	case lo > d.Hi || hi < d.Lo:
		// Satisfied interval and declared range are disjoint.
		emit(CodeThresholdRange, Warn, r.ExprPos(),
			"rule %s is unsatisfiable for %s declared in range(%g, %g): the guardrail fires on every evaluation",
			spec.ExprString(r), key, d.Lo, d.Hi)
	case lo <= d.Lo && d.Hi <= hi:
		// Declared range fits entirely inside the satisfied interval.
		emit(CodeThresholdRange, Warn, r.ExprPos(),
			"rule %s holds for every value of %s declared in range(%g, %g): it guards nothing",
			spec.ExprString(r), key, d.Lo, d.Hi)
	}
}

func checkConstZeroDiv(e spec.Expr, emit func(string, Severity, spec.Pos, string, ...any)) {
	b, ok := e.(*spec.BinaryExpr)
	if !ok || b.Op != spec.TokSlash {
		return
	}
	if v, ok := compile.ConstEval(b.Y); ok && v == 0 {
		emit(CodeConstZeroDiv, Warn, b.Pos,
			"division %s has a constant-zero divisor (the VM defines x/0 = 0, which is rarely intended)", spec.ExprString(b))
	}
}

// keyBound is a half-open constraint a simple comparison rule places on
// one feature key: lo <= k <= hi (bounds may be infinite; strict edges
// are nudged since only emptiness of the intersection matters).
type keyBound struct {
	lo, hi float64
	rule   spec.Expr
}

// checkContradictions intersects, per feature key, the intervals implied
// by simple comparison rules of the shape LOAD(k) op const (either
// operand order). Rules must hold conjointly; an empty intersection
// means the property can never be satisfied, so the guardrail fires on
// every evaluation without any single rule looking wrong.
func checkContradictions(g *spec.Guardrail, emit func(string, Severity, spec.Pos, string, ...any)) {
	bounds := map[string]keyBound{}
	for _, r := range g.Rules {
		key, lo, hi, ok := simpleKeyConstraint(r)
		if !ok {
			continue
		}
		prev, have := bounds[key]
		if !have {
			bounds[key] = keyBound{lo: lo, hi: hi, rule: r}
			continue
		}
		nlo, nhi := math.Max(prev.lo, lo), math.Min(prev.hi, hi)
		if nlo > nhi {
			emit(CodeContradiction, Warn, r.ExprPos(),
				"rule %s contradicts rule %s: no value of %s satisfies both, so the guardrail fires on every evaluation",
				spec.ExprString(r), spec.ExprString(prev.rule), key)
			continue
		}
		bounds[key] = keyBound{lo: nlo, hi: nhi, rule: prev.rule}
	}
}

// simpleKeyConstraint recognizes LOAD(k) op const / ident op const (and
// the mirrored const op LOAD(k)) and returns the interval of key values
// for which the rule holds. Strict bounds are nudged one ulp inward so
// the interval comparison can stay closed.
func simpleKeyConstraint(r spec.Expr) (key string, lo, hi float64, ok bool) {
	b, isBin := r.(*spec.BinaryExpr)
	if !isBin {
		return "", 0, 0, false
	}
	op := b.Op
	k, kOK := loadKey(b.X)
	c, cOK := compile.ConstEval(b.Y)
	if !kOK || !cOK {
		// Mirror: const op LOAD(k) ⇒ LOAD(k) flipped-op const.
		c, cOK = compile.ConstEval(b.X)
		k, kOK = loadKey(b.Y)
		if !kOK || !cOK {
			return "", 0, 0, false
		}
		switch op {
		case spec.TokLt:
			op = spec.TokGt
		case spec.TokLe:
			op = spec.TokGe
		case spec.TokGt:
			op = spec.TokLt
		case spec.TokGe:
			op = spec.TokLe
		}
	}
	switch op {
	case spec.TokEq:
		return k, c, c, true
	case spec.TokLt:
		return k, math.Inf(-1), math.Nextafter(c, math.Inf(-1)), true
	case spec.TokLe:
		return k, math.Inf(-1), c, true
	case spec.TokGt:
		return k, math.Nextafter(c, math.Inf(1)), math.Inf(1), true
	case spec.TokGe:
		return k, c, math.Inf(1), true
	}
	return "", 0, 0, false
}

func loadKey(e spec.Expr) (string, bool) {
	switch n := e.(type) {
	case *spec.LoadExpr:
		return n.Key, true
	case *spec.IdentExpr:
		return n.Name, true
	}
	return "", false
}

// actionExprs returns the expression operands embedded in an action.
func actionExprs(a spec.Action) []spec.Expr {
	switch n := a.(type) {
	case *spec.ReportAction:
		return n.Args
	case *spec.DeprioritizeAction:
		if n.Priority != nil {
			return []spec.Expr{n.Priority}
		}
	case *spec.SaveAction:
		return []spec.Expr{n.Value}
	}
	return nil
}

// Summary renders a one-line count of findings by severity, e.g.
// "2 warnings, 1 info".
func Summary(ds []Diagnostic) string {
	return (&interfere.Report{Diagnostics: ds}).Summary()
}
