package interfere

import (
	"fmt"
	"slices"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Witness synthesis for co-firing findings. The GI001–GI003 checks
// prove *may*-interference: the abstract certificates admit a hook
// dispatch on which both monitors fire with conflicting actions. A
// witness upgrades that to *does*: a concrete input under which one
// dispatch of the pair, replayed by the witness engine
// (compile.SearchWitness, compile.Schedule) the way kernel.Fire runs
// it — in deployment order on one shared store, the first monitor's
// SAVEs visible to the second — fires both violation paths; for SAVE
// conflicts, an input whose two dispatch orders leave different final
// values in the contested key. When the bounded search finds none (the
// monitors' firing conditions may be jointly infeasible even though each
// fires alone), the finding is downgraded to PLAUSIBLE and kept: the
// static claim is sound, the evidence is just beyond the search bounds.

// pairSearch runs the witness engine over the inputs either monitor of
// a pair LOADs; nil when witnesses were not requested.
type pairSearch func(a, b *monFacts, try func(init map[string]float64) []string) *vm.Witness

// newPairSearch searches the declared feature ranges, trying at most
// budget inputs per finding.
func newPairSearch(features map[string]*spec.FeatureDecl, budget int) pairSearch {
	return func(a, b *monFacts, try func(map[string]float64) []string) *vm.Witness {
		free := append(slices.Clone(a.c.Footprint.Loads), b.c.Footprint.Loads...)
		return compile.SearchWitness(free, features, nil, budget, try)
	}
}

// coFire annotates a GI002/GI003-style finding: CONFIRMED when one hook
// dispatch of a then b runs both violation paths, PLAUSIBLE otherwise.
func (search pairSearch) coFire(d *Diagnostic, a, b *monFacts) {
	if search == nil {
		return
	}
	dispatch := compile.Schedule{{a.c, b.c}}
	d.Grade(search(a, b, func(init map[string]float64) []string {
		both := false
		dispatch.Replay(init, func(_ int, recs []*vm.Replay, _ map[string]float64) bool {
			both = recs[0].Violated && recs[1].Violated
			return true
		})
		if !both {
			return nil
		}
		return []string{
			fmt.Sprintf("replayed %s: violation path fires", a.c.Name),
			fmt.Sprintf("replayed %s: violation path fires", b.c.Name),
			"one hook dispatch runs both conflicting actions",
		}
	}))
}

// saveConflict annotates a GI001 finding: CONFIRMED when one input,
// dispatched a then b and (on a fresh copy) b then a, leaves different
// final values in the contested key — the order-dependence the
// diagnostic claims, demonstrated end to end. PLAUSIBLE when no input
// within bounds does.
func (search pairSearch) saveConflict(d *Diagnostic, a, b *monFacts, key string) {
	if search == nil {
		return
	}
	d.Grade(search(a, b, func(init map[string]float64) []string {
		fAB, okAB := lastSave(init, key, a, b)
		fBA, okBA := lastSave(init, key, b, a)
		if !okAB || !okBA || fAB == fBA {
			return nil
		}
		return []string{
			fmt.Sprintf("dispatch %s then %s: final %s = %g", a.c.Name, b.c.Name, key, fAB),
			fmt.Sprintf("dispatch %s then %s: final %s = %g", b.c.Name, a.c.Name, key, fBA),
			"the surviving value depends on dispatch order",
		}
	}))
}

// lastSave replays one dispatch of first then second from init and
// returns the last value either SAVEd to key, false when neither did
// (or a monitor trapped).
func lastSave(init map[string]float64, key string, first, second *monFacts) (v float64, ok bool) {
	_, clean := compile.Schedule{{first.c, second.c}}.Replay(init, func(_ int, recs []*vm.Replay, _ map[string]float64) bool {
		for _, rec := range recs {
			if x, saved := rec.FinalStore(key); saved && rec.Violated {
				v, ok = x, true
			}
		}
		return true
	})
	return v, ok && clean
}
