package vet

import (
	"fmt"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Witness synthesis for lint findings. Several GV codes claim "the
// action fires on every evaluation" — a claim with a replayable half:
// if it is true, *any* concrete feature assignment makes the compiled
// program's rule conjunction evaluate to 0 on the real VM. Witnesses
// turns those claims into evidence by compiling the flagged guardrail,
// enumerating bounded assignments drawn from the file's declared
// feature ranges, and replaying until a run's violation path fires.
// A successful replay marks the diagnostic CONFIRMED and attaches the
// assignment plus the replayed trace; an exhausted search (or a
// guardrail the compiler rejects) downgrades it to PLAUSIBLE — the
// static finding is never dropped.

// DefaultWitnessBudget bounds the assignment enumeration per finding.
const DefaultWitnessBudget = 512

// witnessable reports whether a diagnostic code carries a replayable
// claim. GV002 (always-false rule) and GV003 (contradictory rules) both
// assert the action path runs on every evaluation, so one violating
// replay confirms them. Universally quantified findings (GV001/GV007
// "never fires") have no finite witness and are left unannotated.
func witnessable(code string) bool {
	return code == CodeAlwaysFalse || code == CodeContradiction
}

// Witnesses annotates witnessable diagnostics in place with a
// CONFIRMED/PLAUSIBLE status (and, when confirmed, the replayable
// counterexample). budget <= 0 uses DefaultWitnessBudget. The input
// slice is returned for convenience.
func Witnesses(f *spec.File, ds []Diagnostic, budget int) []Diagnostic {
	if budget <= 0 {
		budget = DefaultWitnessBudget
	}
	features := spec.FeatureRanges(f)
	byName := map[string]*spec.Guardrail{}
	for _, g := range f.Guardrails {
		byName[g.Name] = g
	}
	compiled := map[string]*compile.Compiled{}
	for i := range ds {
		d := &ds[i]
		if !witnessable(d.Code) {
			continue
		}
		c, cached := compiled[d.Guardrail]
		if g := byName[d.Guardrail]; !cached && g != nil {
			c, _ = compile.Guardrail(g) // nil when it does not compile
			compiled[d.Guardrail] = c
		}
		// A guardrail that does not compile in isolation (e.g. it also
		// fails verification) leaves the static finding unreplayed.
		d.Grade(nil)
		if c != nil {
			d.Grade(synthesize(c, features, budget))
		}
	}
	return ds
}

// synthesize searches for one assignment whose replay violates the
// program's rule conjunction, returning the witness or nil.
func synthesize(c *compile.Compiled, features map[string]*spec.FeatureDecl, budget int) *vm.Witness {
	keys := c.Footprint.Loads
	var found *vm.Witness
	vm.EnumAssignments(keys, compile.WitnessSpace(keys, features), budget, func(assign map[string]float64) bool {
		rec := vm.ReplayProgram(c.Program, assign, 0, 0)
		if !rec.Violated {
			return false
		}
		found = &vm.Witness{Inputs: vm.CopyAssign(assign), Steps: narrate(rec)}
		return true
	})
	return found
}

// narrate renders a violating replay as human-readable steps.
func narrate(rec *vm.Replay) []string {
	steps := []string{
		"rule conjunction evaluates to 0 (violated) on the real VM",
		vm.TraceString(&rec.Trace),
	}
	for _, s := range rec.Stores {
		steps = append(steps, fmt.Sprintf("SAVE %s = %g", s.Key, s.Val))
	}
	for _, c := range rec.Calls {
		switch c.Helper {
		case vm.HelperReport:
			steps = append(steps, "REPORT fires")
		case vm.HelperAction:
			steps = append(steps, fmt.Sprintf("action %d dispatches", int(c.Arg)))
		}
	}
	return steps
}
