package modelcheck

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Witness concretization: replay a refutation's abstract trace through
// the witness engine (compile.SearchWitness, compile.Schedule). A
// concrete initial store that reproduces the violation upgrades the
// diagnostic to CONFIRMED and attaches a replayable event schedule;
// otherwise the diagnostic stays PLAUSIBLE — the sound abstract claim
// stands, unreproduced within the search bounds.
//
// The schedule is the abstract trace's group sequence: each group is one
// instant whose monitors run in deployment order on the live store, each
// fired monitor's SAVEs feeding its successors — exactly how the kernel
// runtime serializes same-instant firings.

// searchWitness hands the witness engine the plan's schedule over
// concrete initial stores, returning the first witness that reproduces
// the violation. Declared features range over their interval's candidate
// values and undeclared-unwritten keys (pure environment inputs) over the
// generic seeds; written-undeclared keys are pinned to the store default
// 0.
func (m *model) searchWitness(plan *witnessPlan, budget int) *vm.Witness {
	var free []string
	features := map[string]*spec.FeatureDecl{}
	pinned := map[string]float64{}
	for i, k := range m.keys {
		switch {
		case m.declared[i] != nil:
			free = append(free, k)
			features[k] = m.declared[i]
		case !m.written[i]:
			free = append(free, k)
		default:
			pinned[k] = 0
		}
	}
	prefix, cycle := m.schedule(plan.prefix), m.schedule(plan.cycle)
	return compile.SearchWitness(free, features, pinned, budget, func(init map[string]float64) []string {
		return m.replayPlan(plan, prefix, cycle, init)
	})
}

// schedule turns a group sequence into the monitors each group fires, in
// deployment order.
func (m *model) schedule(groups []int) compile.Schedule {
	s := make(compile.Schedule, len(groups))
	for i, gi := range groups {
		for _, mi := range m.groups[gi].mons {
			s[i] = append(s[i], m.mons[mi])
		}
	}
	return s
}

// replayPlan drives one concrete initial store through the plan's
// schedule (prefix, then cycle) on the real interpreter and checks the
// plan's claim, returning the narrated steps on success.
func (m *model) replayPlan(plan *witnessPlan, prefix, cycle compile.Schedule, init map[string]float64) []string {
	var steps []string

	switch plan.code {
	case CodeSafety:
		end, ok := prefix.Replay(init, m.narrate(plan.prefix, &steps, nil))
		if !ok || !m.predFalse(plan.prog, end) {
			return nil
		}
		return append(steps, "property predicate evaluates false")

	case CodeLiveness:
		if plan.prog == nil || !m.predFalse(plan.prog, init) {
			return nil
		}
		stillFalse := func(_ []*vm.Replay, store map[string]float64) bool {
			return m.predFalse(plan.prog, store)
		}
		entry, ok := prefix.Replay(init, m.narrate(plan.prefix, &steps, stillFalse))
		if !ok {
			return nil
		}
		if len(plan.cycle) == 0 {
			// Finite refutation: the predicate stayed false for the
			// full bound.
			return append(steps, fmt.Sprintf("predicate still false after %d step(s) (bound %d)", len(plan.prefix), plan.within))
		}
		// Pumped refutation: one cycle lap must return to the same
		// concrete store with the predicate false throughout — then
		// the schedule extends to any bound.
		end, ok := cycle.Replay(entry, m.narrate(plan.cycle, &steps, stillFalse))
		if !ok || !sameAssign(entry, end) {
			return nil
		}
		return append(steps, fmt.Sprintf("store returned to its pre-cycle state with the predicate false throughout: the %d-step cycle repeats past any bound (bound %d)", len(plan.cycle), plan.within))

	case CodeOscillation:
		entry, ok := prefix.Replay(init, m.narrate(plan.prefix, &steps, nil))
		if !ok {
			return nil
		}
		written := map[float64]bool{}
		observe := func(recs []*vm.Replay, _ map[string]float64) bool {
			for _, rec := range recs {
				for _, se := range rec.Stores {
					if rec.Violated && se.Key == plan.key {
						written[se.Val] = true
					}
				}
			}
			return true
		}
		end, ok := cycle.Replay(entry, m.narrate(plan.cycle, &steps, observe))
		if !ok || len(written) < 2 || !sameAssign(entry, end) {
			return nil
		}
		vals := make([]float64, 0, len(written))
		for v := range written {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		return append(steps, fmt.Sprintf("store returned to its pre-cycle state after writing %s=%v within the lap: the oscillation repeats forever", plan.key, vals))
	}
	return nil
}

// narrate returns a Schedule.Replay step for the group sequence groups
// that appends one "[label] …" line per group to steps: each fired
// monitor's SAVEs, or that it fired. keep, when non-nil, sees each
// group's replays and the store after it, and ends the replay by
// returning false.
func (m *model) narrate(groups []int, steps *[]string, keep func([]*vm.Replay, map[string]float64) bool) func(int, []*vm.Replay, map[string]float64) bool {
	return func(i int, recs []*vm.Replay, store map[string]float64) bool {
		g := m.groups[groups[i]]
		var acts []string
		for j, rec := range recs {
			if !rec.Violated {
				continue
			}
			name := m.mons[g.mons[j]].Name
			for _, se := range rec.Stores {
				acts = append(acts, fmt.Sprintf("%s SAVE %s=%g", name, se.Key, se.Val))
			}
			if len(rec.Stores) == 0 {
				acts = append(acts, name+" fires")
			}
		}
		if len(acts) == 0 {
			acts = append(acts, "no monitor fires")
		}
		*steps = append(*steps, fmt.Sprintf("[%s] %s", g.label, strings.Join(acts, "; ")))
		return keep == nil || keep(recs, store)
	}
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
	return maps.EqualFunc(a, b, func(x, y float64) bool { return x == y || x != x && y != y })
}
