package interfere

import (
	"fmt"
	"sort"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Witness synthesis for co-firing findings. The GI001–GI003 checks
// prove *may*-interference: the abstract certificates admit a hook
// dispatch on which both monitors fire with conflicting actions. A
// witness upgrades that to *does*: a concrete joint feature assignment
// under which both monitors' violation paths fire on the real
// interpreter — and, for SAVE conflicts, a pair of order-swapped
// sequential replays whose final key values differ, demonstrating the
// dispatch-order dependence the diagnostic describes. When the bounded
// search finds no co-firing input (the monitors' firing conditions may
// be jointly infeasible even though each fires alone), the finding is
// downgraded to PLAUSIBLE and kept: the static claim is sound, the
// evidence is just beyond the search bounds.
//
// Replays run on the raw VM with the same deterministic helper
// semantics the monitor runtime applies (vm.ReplayProgram); SAVE
// compiles to OpStore inside the program, so one replay exercises the
// rules and the store-visible half of the actions. The monitor runtime
// itself cannot be imported here (it sits above this package), which is
// why sequential dispatch is modeled by feeding the first replay's
// stores into the second replay's feature environment — exactly what a
// shared feature store does between two monitors on one hook dispatch.

// DefaultWitnessBudget bounds the joint-assignment enumeration per
// finding.
const DefaultWitnessBudget = 2048

// witnesser performs bounded counterexample synthesis for one Analyze
// run. A nil witnesser (witnesses not requested) is valid and inert.
type witnesser struct {
	features map[string]*spec.FeatureDecl
	budget   int
}

func newWitnesser(features map[string]*spec.FeatureDecl, budget int) *witnesser {
	if budget <= 0 {
		budget = DefaultWitnessBudget
	}
	return &witnesser{features: features, budget: budget}
}

// jointSpace builds the search space for a monitor pair: the union of
// the feature keys either program LOADs, with candidate values drawn
// from the declared ranges where they exist.
func (w *witnesser) jointSpace(a, b *monFacts) ([]string, map[string][]float64) {
	keys := append([]string(nil), a.c.Footprint.Loads...)
	for _, k := range b.c.Footprint.Loads {
		if !a.c.Footprint.Reads(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, compile.WitnessSpace(keys, w.features)
}

// findJoint searches for one assignment on which both monitors'
// violation paths fire when each is replayed against it. Returns nil
// when the budget is exhausted first.
func (w *witnesser) findJoint(a, b *monFacts) map[string]float64 {
	keys, cands := w.jointSpace(a, b)
	var found map[string]float64
	vm.EnumAssignments(keys, cands, w.budget, func(assign map[string]float64) bool {
		if !vm.ReplayProgram(a.c.Program, assign, 0, 0).Violated {
			return false
		}
		if !vm.ReplayProgram(b.c.Program, assign, 0, 0).Violated {
			return false
		}
		found = vm.CopyAssign(assign)
		return true
	})
	return found
}

// coFire annotates a GI002/GI003-style finding: CONFIRMED when a joint
// input fires both monitors on one dispatch, PLAUSIBLE otherwise.
func (w *witnesser) coFire(d *Diagnostic, a, b *monFacts) {
	if w == nil {
		return
	}
	d.Grade(nil)
	if assign := w.findJoint(a, b); assign != nil {
		d.Grade(&vm.Witness{Inputs: assign, Steps: []string{
			fmt.Sprintf("replayed %s: violation path fires", a.c.Name),
			fmt.Sprintf("replayed %s: violation path fires", b.c.Name),
			"one hook dispatch runs both conflicting actions",
		}})
	}
}

// saveConflict annotates a GI001 finding: CONFIRMED when a joint input
// fires both monitors AND replaying the dispatch in both orders leaves
// different final values in the contested key — the order-dependence
// the diagnostic claims, demonstrated end to end. PLAUSIBLE when no
// joint input co-fires the pair within bounds, or when (despite
// disjoint certified ranges) the sequential replays converge.
func (w *witnesser) saveConflict(d *Diagnostic, a, b *monFacts, key string) {
	if w == nil {
		return
	}
	d.Grade(nil)
	assign := w.findJoint(a, b)
	if assign == nil {
		return
	}
	fAB, okAB := runSequential(a, b, assign, key)
	fBA, okBA := runSequential(b, a, assign, key)
	if !okAB || !okBA || fAB == fBA {
		return
	}
	d.Grade(&vm.Witness{Inputs: assign, Steps: []string{
		fmt.Sprintf("dispatch %s then %s: final %s = %g", a.c.Name, b.c.Name, key, fAB),
		fmt.Sprintf("dispatch %s then %s: final %s = %g", b.c.Name, a.c.Name, key, fBA),
		"the surviving value depends on dispatch order",
	}})
}

// runSequential models one hook dispatch ordering: replay first, apply
// its stores to the shared feature environment, replay second, and
// return the contested key's final value (second's last write wins,
// else first's).
func runSequential(first, second *monFacts, assign map[string]float64, key string) (float64, bool) {
	env := vm.CopyAssign(assign)
	r1 := vm.ReplayProgram(first.c.Program, env, 0, 0)
	for _, s := range r1.Stores {
		if s.Key != "" {
			env[s.Key] = s.Val
		}
	}
	r2 := vm.ReplayProgram(second.c.Program, env, 0, 0)
	if v, ok := r2.FinalStore(key); ok {
		return v, true
	}
	if v, ok := r1.FinalStore(key); ok {
		return v, true
	}
	return 0, false
}
