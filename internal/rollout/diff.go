// Semantic deployment diff: what actually changed between two
// deployment generations, at guardrail granularity — triggers, rules,
// actions, and the special case operators care about most, a
// threshold-only retune (same rule shape, different constants). The
// diff drives two things: the rollout report an operator reads before
// approving a canary, and the *scoped* interference re-analysis — only
// the changed guardrails and the unchanged ones coupled to them through
// shared hook sites or feature-store keys are re-analyzed, so canary
// admission stays cheap on large fleets where one guardrail changed.
package rollout

import (
	"fmt"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
)

// ChangeKind classifies one guardrail's fate across two generations.
type ChangeKind int

// Change kinds.
const (
	// Unchanged: the guardrail is semantically identical in both
	// generations.
	Unchanged ChangeKind = iota
	// Added: the guardrail exists only in the new generation.
	Added
	// Removed: the guardrail exists only in the old generation.
	Removed
	// Retuned: only numeric constants changed (rule thresholds, SAVE
	// values, report arguments) — the shape of every trigger, rule, and
	// action is identical.
	Retuned
	// Modified: structural changes — triggers, rule shapes, or the
	// action list differ.
	Modified
)

// String names the kind.
func (k ChangeKind) String() string {
	switch k {
	case Unchanged:
		return "unchanged"
	case Added:
		return "added"
	case Removed:
		return "removed"
	case Retuned:
		return "retuned"
	case Modified:
		return "modified"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind name, keeping rollout reports readable.
func (k ChangeKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// Change is one guardrail's diff entry.
type Change struct {
	// Name is the guardrail name.
	Name string `json:"name"`
	// Kind classifies the change.
	Kind ChangeKind `json:"kind"`
	// Triggers/Rules/Actions flag which sections changed (Modified and
	// Retuned entries).
	Triggers bool `json:"triggers,omitempty"`
	Rules    bool `json:"rules,omitempty"`
	Actions  bool `json:"actions,omitempty"`
	// Details are human-readable per-item changes, e.g.
	// "rule 1 threshold: 0.05 -> 0.02".
	Details []string `json:"details,omitempty"`
}

// String renders "name: kind (details...)".
func (c Change) String() string {
	s := fmt.Sprintf("%s: %s", c.Name, c.Kind)
	if len(c.Details) > 0 {
		s += " (" + strings.Join(c.Details, "; ") + ")"
	}
	return s
}

// Diff is the semantic difference between two deployment generations.
type Diff struct {
	// Changes lists every guardrail of either generation, sorted by
	// name.
	Changes []Change `json:"changes"`
	// was holds the old generation's footprints of the removed, retuned
	// and modified guardrails: Scope re-analyzes whatever was coupled to
	// them, as well as whatever is coupled to their new form.
	was []*compile.Footprint
}

// Changed returns the names of guardrails that differ (everything but
// Unchanged), sorted.
func (d *Diff) Changed() []string {
	var out []string
	for _, c := range d.Changes {
		if c.Kind != Unchanged {
			out = append(out, c.Name)
		}
	}
	return out
}

// Change returns the entry for a guardrail name (zero Change if the
// name appears in neither generation).
func (d *Diff) Change(name string) Change {
	for _, c := range d.Changes {
		if c.Name == name {
			return c
		}
	}
	return Change{}
}

// Empty reports a diff with no semantic changes.
func (d *Diff) Empty() bool { return len(d.Changed()) == 0 }

// Summary renders a one-line count by kind.
func (d *Diff) Summary() string {
	counts := map[ChangeKind]int{}
	for _, c := range d.Changes {
		counts[c.Kind]++
	}
	var parts []string
	for _, k := range []ChangeKind{Added, Removed, Retuned, Modified, Unchanged} {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		}
	}
	if len(parts) == 0 {
		return "empty deployment"
	}
	return strings.Join(parts, ", ")
}

// Compare computes the semantic diff from the old generation to the
// new one. Comparison is over the checked ASTs (canonical source
// rendering), so formatting and comment differences never count as
// changes.
func Compare(old, new []*compile.Compiled) *Diff {
	oldBy := map[string]*compile.Compiled{}
	for _, c := range old {
		oldBy[c.Name] = c
	}
	newBy := map[string]*compile.Compiled{}
	for _, c := range new {
		newBy[c.Name] = c
	}
	names := map[string]bool{}
	for n := range oldBy {
		names[n] = true
	}
	for n := range newBy {
		names[n] = true
	}
	d := &Diff{}
	for n := range names {
		oc, inOld := oldBy[n]
		nc, inNew := newBy[n]
		switch {
		case !inOld:
			d.Changes = append(d.Changes, Change{Name: n, Kind: Added})
		case !inNew:
			d.Changes = append(d.Changes, Change{Name: n, Kind: Removed})
			d.was = append(d.was, &oc.Footprint)
		default:
			ch := compareGuardrail(oc.Source, nc.Source)
			d.Changes = append(d.Changes, ch)
			if ch.Kind != Unchanged {
				d.was = append(d.was, &oc.Footprint)
			}
		}
	}
	sort.Slice(d.Changes, func(i, j int) bool { return d.Changes[i].Name < d.Changes[j].Name })
	return d
}

// compareGuardrail diffs one guardrail present in both generations.
func compareGuardrail(old, new *spec.Guardrail) Change {
	ch := Change{Name: new.Name}

	oldTrig := renderAll(len(old.Triggers), func(i int) string { return old.Triggers[i].String() })
	newTrig := renderAll(len(new.Triggers), func(i int) string { return new.Triggers[i].String() })
	ch.Triggers = !equalStrings(oldTrig, newTrig)
	if ch.Triggers {
		ch.Details = append(ch.Details, sectionDetail("trigger", oldTrig, newTrig)...)
	}

	rulesChanged, rulesRetunedOnly := diffExprList("rule", old.Rules, new.Rules, &ch.Details)
	ch.Rules = rulesChanged

	oldAct := renderAll(len(old.Actions), func(i int) string { return old.Actions[i].String() })
	newAct := renderAll(len(new.Actions), func(i int) string { return new.Actions[i].String() })
	actionsChanged := !equalStrings(oldAct, newAct)
	actionsRetunedOnly := true
	if actionsChanged {
		oldSkel := renderAll(len(old.Actions), func(i int) string { return actionSkeleton(old.Actions[i]) })
		newSkel := renderAll(len(new.Actions), func(i int) string { return actionSkeleton(new.Actions[i]) })
		actionsRetunedOnly = equalStrings(oldSkel, newSkel)
		if actionsRetunedOnly {
			for i := range new.Actions {
				if oldAct[i] != newAct[i] {
					ch.Details = append(ch.Details,
						fmt.Sprintf("action %d retuned: %s -> %s", i, oldAct[i], newAct[i]))
				}
			}
		} else {
			ch.Details = append(ch.Details, sectionDetail("action", oldAct, newAct)...)
		}
	}
	ch.Actions = actionsChanged

	switch {
	case !ch.Triggers && !rulesChanged && !actionsChanged:
		ch.Kind = Unchanged
	case !ch.Triggers && rulesRetunedOnly && actionsRetunedOnly:
		ch.Kind = Retuned
	default:
		ch.Kind = Modified
	}
	return ch
}

// diffExprList diffs an expression section, detecting threshold-only
// retunes: same expression skeletons, different numeric literals.
// Returns (changed, retunedOnly); retunedOnly is vacuously true when
// nothing changed.
func diffExprList(section string, old, new []spec.Expr, details *[]string) (changed, retunedOnly bool) {
	oldFull := renderAll(len(old), func(i int) string { return spec.ExprString(old[i]) })
	newFull := renderAll(len(new), func(i int) string { return spec.ExprString(new[i]) })
	if equalStrings(oldFull, newFull) {
		return false, true
	}
	oldSkel := renderAll(len(old), func(i int) string { return exprSkeleton(old[i]) })
	newSkel := renderAll(len(new), func(i int) string { return exprSkeleton(new[i]) })
	if !equalStrings(oldSkel, newSkel) {
		*details = append(*details, sectionDetail(section, oldFull, newFull)...)
		return true, false
	}
	// Same shape: report the literal deltas per expression.
	for i := range new {
		if oldFull[i] == newFull[i] {
			continue
		}
		var ol, nl []float64
		exprLiterals(old[i], &ol)
		exprLiterals(new[i], &nl)
		var deltas []string
		for j := range nl {
			if j < len(ol) && ol[j] != nl[j] {
				deltas = append(deltas, fmt.Sprintf("%g -> %g", ol[j], nl[j]))
			}
		}
		*details = append(*details,
			fmt.Sprintf("%s %d threshold: %s", section, i, strings.Join(deltas, ", ")))
	}
	return true, true
}

// sectionDetail renders added/removed/modified lines for a structurally
// changed section.
func sectionDetail(section string, old, new []string) []string {
	var out []string
	n := len(old)
	if len(new) > n {
		n = len(new)
	}
	for i := 0; i < n; i++ {
		switch {
		case i >= len(old):
			out = append(out, fmt.Sprintf("%s %d added: %s", section, i, new[i]))
		case i >= len(new):
			out = append(out, fmt.Sprintf("%s %d removed: %s", section, i, old[i]))
		case old[i] != new[i]:
			out = append(out, fmt.Sprintf("%s %d: %s -> %s", section, i, old[i], new[i]))
		}
	}
	return out
}

func renderAll(n int, f func(int) string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exprSkeleton renders an expression with every numeric literal masked,
// so two expressions have equal skeletons iff they differ only in
// constants.
func exprSkeleton(e spec.Expr) string {
	switch n := e.(type) {
	case *spec.NumLit:
		return "<num>"
	case *spec.UnaryExpr:
		return n.Op.String() + "(" + exprSkeleton(n.X) + ")"
	case *spec.BinaryExpr:
		return "(" + exprSkeleton(n.X) + " " + n.Op.String() + " " + exprSkeleton(n.Y) + ")"
	case *spec.CallExpr:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = exprSkeleton(a)
		}
		return n.Fn + "(" + strings.Join(parts, ", ") + ")"
	default:
		return spec.ExprString(e)
	}
}

// exprLiterals collects the numeric literals of an expression in
// left-to-right order.
func exprLiterals(e spec.Expr, out *[]float64) {
	spec.WalkExpr(e, func(e spec.Expr) {
		if n, ok := e.(*spec.NumLit); ok {
			*out = append(*out, n.Value)
		}
	})
}

// actionSkeleton renders an action with its value expressions masked.
func actionSkeleton(a spec.Action) string {
	switch act := a.(type) {
	case *spec.SaveAction:
		return fmt.Sprintf("SAVE(%s, %s)", act.Key, exprSkeleton(act.Value))
	case *spec.ReportAction:
		parts := make([]string, len(act.Args))
		for i, arg := range act.Args {
			parts[i] = exprSkeleton(arg)
		}
		return fmt.Sprintf("REPORT(%s)", strings.Join(parts, ", "))
	case *spec.DeprioritizeAction:
		if act.Priority != nil {
			return fmt.Sprintf("DEPRIORITIZE(%s, %s)", act.Target, exprSkeleton(act.Priority))
		}
		return a.String()
	default:
		return a.String()
	}
}

// --- scoped interference re-analysis -----------------------------------

// Scope narrows a full new-generation deployment to the slice the
// canary admission must re-analyze: every changed (added, retuned,
// modified) guardrail, plus the fixpoint closure of unchanged
// guardrails coupled to the slice, in its new form or its old one —
// sharing a FUNCTION hook site, sharing a feature key at least one side
// writes, or both timer-driven while sharing a written key. A guardrail
// outside the scope cannot have new interference: its source is
// unchanged, and so is the source of every guardrail it is coupled to
// in either generation; none of them was added, removed, retuned or
// modified.
//
// The returned names list the scoped guardrails (sorted); the returned
// deployment shares the input's features and budgets but carries only
// the scoped monitors.
func Scope(d *Diff, dep *interfere.Deployment) (*interfere.Deployment, []string) {
	inScope := map[string]bool{}
	for _, name := range d.Changed() {
		inScope[name] = true
	}

	// A written key read or written by the other side couples a pair
	// (SAVE/SAVE conflicts, SAVE→LOAD refinement and cycles).
	writesInto := func(a, b *compile.Footprint) bool {
		for _, k := range a.Stores {
			if b.Reads(k) || b.Writes(k) {
				return true
			}
		}
		return false
	}
	coupled := func(a, b *compile.Footprint) bool {
		for _, site := range a.Sites {
			for _, other := range b.Sites {
				if site == other {
					return true
				}
			}
		}
		// Two timer-driven guardrails can co-fire (timer coincidence);
		// that only matters when they also touch a common written key.
		// Pure timer overlap with disjoint state cannot interfere.
		return writesInto(a, b) || writesInto(b, a)
	}

	// Fixpoint closure over the coupling relation, grown from the
	// changed guardrails' new footprints and old ones: a guardrail that
	// was coupled only to what a peer touched before its edit (or its
	// removal) lost an interaction, and what is left must be re-analyzed
	// without it.
	seeds := append([]*compile.Footprint(nil), d.was...)
	for _, c := range dep.Monitors {
		if inScope[c.Name] {
			seeds = append(seeds, &c.Footprint)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range dep.Monitors {
			if inScope[c.Name] {
				continue
			}
			for _, fp := range seeds {
				if coupled(&c.Footprint, fp) {
					inScope[c.Name] = true
					seeds = append(seeds, &c.Footprint)
					changed = true
					break
				}
			}
		}
	}

	scoped := &interfere.Deployment{
		Features:    dep.Features,
		HookBudget:  dep.HookBudget,
		HookBudgets: dep.HookBudgets,
	}
	var names []string
	for _, c := range dep.Monitors {
		if inScope[c.Name] {
			scoped.Monitors = append(scoped.Monitors, c)
			names = append(names, c.Name)
		}
	}
	sort.Strings(names)
	return scoped, names
}

// CheckScoped runs the deployment checks on a candidate generation with
// the interference analysis narrowed to the diff's scope, returning the
// verdict and the scoped guardrail names. Declared properties are
// model-checked against the whole candidate.
func CheckScoped(d *Diff, dep *deploy.Deployment) (*deploy.Verdict, []string) {
	scoped, names := Scope(d, &interfere.Deployment{Monitors: dep.Monitors})
	in := make(map[*compile.Compiled]bool, len(scoped.Monitors))
	for _, c := range scoped.Monitors {
		in[c] = true
	}
	return dep.Check(deploy.Checks{Scope: func(c *compile.Compiled) bool { return in[c] }}), names
}
