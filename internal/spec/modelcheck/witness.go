package modelcheck

import (
	"fmt"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Witness concretization: replay a refutation's abstract trace through
// the real interpreter. A concrete initial store that reproduces the
// violation upgrades the diagnostic to CONFIRMED and attaches a
// replayable event schedule; otherwise the diagnostic stays PLAUSIBLE
// — the sound abstract claim stands, unreproduced within the search
// bounds.
//
// The schedule is the abstract trace's group sequence: at each step
// the group's monitors run in deployment order on the live store,
// each fired monitor's SAVEs feeding its successors — exactly how the
// kernel runtime serializes same-instant firings.

// searchWitness enumerates concrete initial stores and replays the
// plan's schedule, returning the first witness that reproduces the
// violation.
func (m *model) searchWitness(plan *witnessPlan, budget int) *vm.Witness {
	// Free variables of the search: declared features range over their
	// interval's candidate values; undeclared-unwritten keys (pure
	// environment inputs) over generic seeds. Written-undeclared keys
	// are pinned to the store default 0.
	var keys []string // m.keys is sorted, so keys is too
	features := map[string]*spec.FeatureDecl{}
	base := map[string]float64{}
	for i, k := range m.keys {
		switch {
		case m.declared[i] != nil:
			keys = append(keys, k)
			features[k] = m.declared[i]
		case !m.written[i]:
			keys = append(keys, k)
		default:
			base[k] = 0
		}
	}

	var found *vm.Witness
	vm.EnumAssignments(keys, compile.WitnessSpace(keys, features), budget, func(assign map[string]float64) bool {
		env := vm.CopyAssign(base)
		for k, v := range assign {
			env[k] = v
		}
		initial := vm.CopyAssign(env)
		if w := m.replayPlan(plan, env); w != nil {
			w.Inputs = initial
			found = w
			return true
		}
		return false
	})
	return found
}

// replayPlan drives one concrete initial store through the plan's
// schedule on the real interpreter and checks the plan's claim,
// returning a narrated witness on success. env is mutated.
func (m *model) replayPlan(plan *witnessPlan, env map[string]float64) *vm.Witness {
	var steps []string

	switch plan.code {
	case CodeSafety:
		if !m.replayGroups(plan.prefix, env, &steps, nil, nil) {
			return nil
		}
		if !m.predFalse(plan.prog, env) {
			return nil
		}
		steps = append(steps, "property predicate evaluates false")
		return &vm.Witness{Steps: steps}

	case CodeLiveness:
		if plan.prog == nil || !m.predFalse(plan.prog, env) {
			return nil
		}
		allFalse := true
		check := func(e map[string]float64) {
			if !m.predFalse(plan.prog, e) {
				allFalse = false
			}
		}
		if !m.replayGroups(plan.prefix, env, &steps, check, nil) || !allFalse {
			return nil
		}
		if len(plan.cycle) == 0 {
			// Finite refutation: the predicate stayed false for the
			// full bound.
			steps = append(steps, fmt.Sprintf("predicate still false after %d step(s) (bound %d)", len(plan.prefix), plan.within))
			return &vm.Witness{Steps: steps}
		}
		// Pumped refutation: one cycle lap must return to the same
		// concrete store with the predicate false throughout — then
		// the schedule extends to any bound.
		entry := vm.CopyAssign(env)
		if !m.replayGroups(plan.cycle, env, &steps, check, nil) || !allFalse {
			return nil
		}
		if !sameAssign(entry, env) {
			return nil
		}
		steps = append(steps, fmt.Sprintf("store returned to its pre-cycle state with the predicate false throughout: the %d-step cycle repeats past any bound (bound %d)", len(plan.cycle), plan.within))
		return &vm.Witness{Steps: steps}

	case CodeOscillation:
		if !m.replayGroups(plan.prefix, env, &steps, nil, nil) {
			return nil
		}
		entry := vm.CopyAssign(env)
		written := map[float64]bool{}
		observe := func(key string, val float64) {
			if key == plan.key {
				written[val] = true
			}
		}
		if !m.replayGroups(plan.cycle, env, &steps, nil, observe) {
			return nil
		}
		if len(written) < 2 || !sameAssign(entry, env) {
			return nil
		}
		vals := make([]float64, 0, len(written))
		for v := range written {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		steps = append(steps, fmt.Sprintf("store returned to its pre-cycle state after writing %s=%v within the lap: the oscillation repeats forever", plan.key, vals))
		return &vm.Witness{Steps: steps}
	}
	return nil
}

// replayGroups replays a group sequence on env, narrating into steps:
// each group's monitors run in deployment order, fired monitors' stores
// applied as they go. observe (when non-nil) sees each store write,
// after (when non-nil) the store after each group. Returns false on any
// interpreter trap.
func (m *model) replayGroups(groups []int, env map[string]float64, steps *[]string, after func(map[string]float64), observe func(string, float64)) bool {
	for _, gi := range groups {
		g := m.groups[gi]
		var acts []string
		for _, mi := range g.mons {
			c := m.mons[mi]
			rec := vm.ReplayProgram(c.Program, env, 0, 0)
			if rec.Err != nil {
				return false
			}
			if !rec.Violated {
				continue
			}
			for _, se := range rec.Stores {
				env[se.Key] = se.Val
				if observe != nil {
					observe(se.Key, se.Val)
				}
				acts = append(acts, fmt.Sprintf("%s SAVE %s=%g", c.Name, se.Key, se.Val))
			}
			if len(rec.Stores) == 0 {
				acts = append(acts, c.Name+" fires")
			}
		}
		if len(acts) == 0 {
			acts = append(acts, "no monitor fires")
		}
		*steps = append(*steps, fmt.Sprintf("[%s] %s", g.label, strings.Join(acts, "; ")))
		if after != nil {
			after(env)
		}
	}
	return true
}

// predFalse replays a compiled predicate against a concrete store:
// true when the predicate concretely fails.
func (m *model) predFalse(prog *vm.Program, env map[string]float64) bool {
	if prog == nil {
		return false
	}
	rec := vm.ReplayProgram(prog, env, 0, 0)
	return rec.Err == nil && rec.Violated
}

// sameAssign reports two concrete stores identical (same keys, same
// values; NaN matches NaN).
func sameAssign(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return false
		}
		if va != vb && !(va != va && vb != vb) {
			return false
		}
	}
	return true
}
