package compile

import (
	"maps"
	"slices"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// The witness engine: the one bounded search and the one schedule replay
// behind every CONFIRMED diagnostic (vet's GV002/GV003, interfere's
// GI001–GI003, modelcheck's GM001–GM003). A driver only builds the
// schedule its finding claims, judges each trial and narrates the one it
// accepts.

// DefaultWitnessBudget bounds the trials of one search.
const DefaultWitnessBudget = 2048

// SearchWitness enumerates initial feature stores and returns the first
// one try accepts, as a witness whose Inputs are that store and whose
// Steps are what try returned. Each free key takes vm.Candidates of its
// declared range in features, or the generic seeds when it has none;
// free keys are sorted and deduplicated, and the last varies fastest.
// Pinned keys hold their value in every trial. Every trial hands try a
// fresh initial store, which try reads and replays on copies of
// (Schedule.Replay) but does not modify; try returns nil to reject it.
// The search stops after budget trials (0 = DefaultWitnessBudget) and
// then returns nil.
func SearchWitness(free []string, features map[string]*spec.FeatureDecl, pinned map[string]float64, budget int, try func(init map[string]float64) []string) *vm.Witness {
	keys := slices.Clone(free)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	cands := make([][]float64, len(keys))
	for i, k := range keys {
		if fd, ok := features[k]; ok {
			cands[i] = vm.Candidates(vm.RangeInterval(fd.Lo, fd.Hi), true)
		} else {
			cands[i] = vm.Candidates(vm.Interval{}, false)
		}
	}
	if budget <= 0 {
		budget = DefaultWitnessBudget
	}
	var found *vm.Witness
	enumerate(cands, budget, func(vals []float64) bool {
		init := make(map[string]float64, len(pinned)+len(keys))
		maps.Copy(init, pinned)
		for i, k := range keys {
			init[k] = vals[i]
		}
		if steps := try(init); steps != nil {
			found = &vm.Witness{Inputs: init, Steps: steps}
		}
		return found != nil
	})
	return found
}

// enumerate is the search's odometer: it calls try with each value
// vector of the Cartesian product of cands (the last key fastest; a key
// with no candidates reads 0), stopping when try accepts or after budget
// trials. It returns the number of trials.
func enumerate(cands [][]float64, budget int, try func(vals []float64) bool) int {
	idx := make([]int, len(cands))
	vals := make([]float64, len(cands))
	for trials := 1; ; trials++ {
		for i, cs := range cands {
			vals[i] = 0
			if len(cs) > 0 {
				vals[i] = cs[idx[i]]
			}
		}
		if try(vals) || trials >= budget {
			return trials
		}
		i := len(cands) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(cands[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return trials
		}
	}
}

// Schedule is the event order a witness replays: a sequence of instants,
// each the monitors that fire together on one dispatch (a hook site, or
// timers due at one instant), in deployment order.
type Schedule [][]*Compiled

// Replay runs the schedule on a copy of init the way kernel.Fire and the
// timer queue run it: within an instant each monitor runs on the one
// shared store in order, and a violating monitor's SAVEs are in the store
// for every monitor after it. A holding monitor writes nothing. step,
// when non-nil, sees each instant's replays (parallel to the instant's
// monitors) and the store after it, and stops the replay by returning
// false. Replay returns the final store, and false when a monitor
// trapped or step stopped it.
func (s Schedule) Replay(init map[string]float64, step func(instant int, recs []*vm.Replay, store map[string]float64) bool) (map[string]float64, bool) {
	store := make(map[string]float64, len(init))
	maps.Copy(store, init)
	for i, instant := range s {
		recs := make([]*vm.Replay, len(instant))
		for j, c := range instant {
			rec := vm.ReplayProgram(c.Program, store, 0, 0)
			if rec.Err != nil {
				return store, false
			}
			if rec.Violated {
				for _, w := range rec.Stores {
					store[w.Key] = w.Val
				}
			}
			recs[j] = rec
		}
		if step != nil && !step(i, recs, store) {
			return store, false
		}
	}
	return store, true
}
