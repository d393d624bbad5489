package compile

import (
	"slices"
	"testing"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// witnessMonitors compiles src and returns its guardrails by name.
func witnessMonitors(t *testing.T, src string) map[string]*Compiled {
	t.Helper()
	cs, err := Source(src)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Compiled{}
	for _, c := range cs {
		byName[c.Name] = c
	}
	return byName
}

func ranges(decls ...*spec.FeatureDecl) map[string]*spec.FeatureDecl {
	out := map[string]*spec.FeatureDecl{}
	for _, d := range decls {
		out[d.Key] = d
	}
	return out
}

// TestSearchVisitsTheProductInOdometerOrder: when nothing accepts, the
// search tries every combination of the free keys' candidates once, the
// last key fastest, and returns no witness.
func TestSearchVisitsTheProductInOdometerOrder(t *testing.T) {
	features := ranges(&spec.FeatureDecl{Key: "a", Lo: 1, Hi: 3}, &spec.FeatureDecl{Key: "b", Lo: 10, Hi: 20})
	var seen [][2]float64
	w := SearchWitness([]string{"b", "a", "b"}, features, nil, 1000, func(init map[string]float64) []string {
		seen = append(seen, [2]float64{init["a"], init["b"]})
		return nil
	})
	if w != nil {
		t.Fatalf("a search nothing accepts returned %v", w)
	}
	want := [][2]float64{{1, 10}, {1, 20}, {1, 15}, {3, 10}, {3, 20}, {3, 15}, {2, 10}, {2, 20}, {2, 15}}
	if !slices.Equal(seen, want) {
		t.Fatalf("trials %v, want %v", seen, want)
	}
}

// TestSearchBudgetCapsTrials: the search gives up after budget trials,
// and a zero budget is DefaultWitnessBudget.
func TestSearchBudgetCapsTrials(t *testing.T) {
	count := func(free []string, budget int) int {
		n := 0
		SearchWitness(free, nil, nil, budget, func(map[string]float64) []string { n++; return nil })
		return n
	}
	if n := count([]string{"a", "b"}, 4); n != 4 {
		t.Errorf("budget 4 ran %d trials", n)
	}
	// Five undeclared keys take the six generic seeds each: 7 776
	// combinations, more than the default budget.
	if n := count([]string{"a", "b", "c", "d", "e"}, 0); n != DefaultWitnessBudget {
		t.Errorf("budget 0 ran %d trials, want %d", n, DefaultWitnessBudget)
	}
	if n := count(nil, 0); n != 1 {
		t.Errorf("a search with no free key ran %d trials, want 1", n)
	}
}

// TestSearchStopsAtFirstAccepted: the first trial try accepts ends the
// search, and its store and steps are the witness.
func TestSearchStopsAtFirstAccepted(t *testing.T) {
	features := ranges(&spec.FeatureDecl{Key: "a", Lo: 1, Hi: 3}, &spec.FeatureDecl{Key: "b", Lo: 10, Hi: 20})
	trials := 0
	w := SearchWitness([]string{"a", "b"}, features, nil, 1000, func(init map[string]float64) []string {
		trials++
		if init["a"] == 3 && init["b"] == 10 {
			return []string{"accepted"}
		}
		return nil
	})
	if w == nil || trials != 4 {
		t.Fatalf("witness %v after %d trials, want one after 4", w, trials)
	}
	if len(w.Inputs) != 2 || w.Inputs["a"] != 3 || w.Inputs["b"] != 10 || !slices.Equal(w.Steps, []string{"accepted"}) {
		t.Fatalf("witness %v", w)
	}
}

// TestSearchKeyWithoutCandidatesReadsZero: the odometer counts a key
// with no candidates as one value, 0, rather than stalling.
func TestSearchKeyWithoutCandidatesReadsZero(t *testing.T) {
	var got []float64
	trials := enumerate([][]float64{nil, {1, 2}}, 10, func(vals []float64) bool {
		got = append(got, vals...)
		return false
	})
	if trials != 2 || !slices.Equal(got, []float64{0, 1, 0, 2}) {
		t.Fatalf("%d trials saw %v, want 2 trials of [0 1] [0 2]", trials, got)
	}
}

// TestSearchPinnedKeysNeverVary: a pinned key holds its value in every
// trial and in the witness.
func TestSearchPinnedKeysNeverVary(t *testing.T) {
	trials := 0
	w := SearchWitness([]string{"a"}, nil, map[string]float64{"p": 7}, 1000, func(init map[string]float64) []string {
		trials++
		if init["p"] != 7 {
			t.Fatalf("trial %d: pinned p = %v", trials, init["p"])
		}
		if init["a"] == 100 { // the last generic seed
			return []string{"last"}
		}
		return nil
	})
	if w == nil || trials != 6 || w.Inputs["p"] != 7 {
		t.Fatalf("witness %v after %d trials", w, trials)
	}
}

const replaySrc = `
guardrail set-y {
    trigger: { FUNCTION(s) },
    rule: { LOAD(x) > 100 },
    action: { SAVE(y, 5) }
}
guardrail sees-y {
    trigger: { FUNCTION(s) },
    rule: { LOAD(y) != 5 },
    action: { REPORT(1) }
}
guardrail holds {
    trigger: { FUNCTION(s) },
    rule: { LOAD(x) < 100 },
    action: { SAVE(x, 50) }
}`

// TestWitnessInputsAreTheInitialStore: the witness's Inputs are the
// store the trial started from, not the store after the schedule's
// SAVEs.
func TestWitnessInputsAreTheInitialStore(t *testing.T) {
	ms := witnessMonitors(t, replaySrc)
	var end map[string]float64
	w := SearchWitness([]string{"x", "y"}, nil, nil, 0, func(init map[string]float64) []string {
		var ok bool
		end, ok = Schedule{{ms["set-y"]}}.Replay(init, nil)
		if !ok || end["y"] != 5 {
			return nil
		}
		return []string{"set-y fires"}
	})
	if w == nil {
		t.Fatal("no witness")
	}
	if w.Inputs["y"] != 0 || w.Inputs["x"] != 0 || end["y"] != 5 {
		t.Fatalf("inputs %v, final store %v: want y=0 in, y=5 out", w.Inputs, end)
	}
}

// TestReplaySharesTheStoreWithinAnInstant: a later monitor of an instant
// sees an earlier violating monitor's SAVE, so the order of the instant
// decides whether sees-y fires.
func TestReplaySharesTheStoreWithinAnInstant(t *testing.T) {
	ms := witnessMonitors(t, replaySrc)
	init := map[string]float64{"x": 0, "y": 0}
	for _, tc := range []struct {
		instant []*Compiled
		fired   []bool
	}{
		{[]*Compiled{ms["set-y"], ms["sees-y"]}, []bool{true, true}},
		{[]*Compiled{ms["sees-y"], ms["set-y"]}, []bool{false, true}},
	} {
		var fired []bool
		end, ok := Schedule{tc.instant}.Replay(init, func(i int, recs []*vm.Replay, _ map[string]float64) bool {
			for _, rec := range recs {
				fired = append(fired, rec.Violated)
			}
			return true
		})
		if !ok || !slices.Equal(fired, tc.fired) || end["y"] != 5 {
			t.Errorf("%s then %s: fired %v (ok %v, y=%v), want %v and y=5",
				tc.instant[0].Name, tc.instant[1].Name, fired, ok, end["y"], tc.fired)
		}
	}
	if init["y"] != 0 {
		t.Errorf("replay modified its initial store: %v", init)
	}
}

// TestReplayHoldingMonitorWritesNothing: a monitor whose rules hold
// leaves the store as it was.
func TestReplayHoldingMonitorWritesNothing(t *testing.T) {
	ms := witnessMonitors(t, replaySrc)
	end, ok := Schedule{{ms["holds"]}, {ms["holds"]}}.Replay(map[string]float64{"x": 0}, func(_ int, recs []*vm.Replay, store map[string]float64) bool {
		if recs[0].Violated || store["x"] != 0 {
			t.Errorf("holding monitor: violated %v, store %v", recs[0].Violated, store)
		}
		return true
	})
	if !ok || len(end) != 1 || end["x"] != 0 {
		t.Fatalf("store after two holding dispatches: %v (ok %v)", end, ok)
	}
}

// TestReplayTrapRejectsTheTrial: a monitor that traps ends the replay
// unclean before anything after it runs, so no trial is accepted.
func TestReplayTrapRejectsTheTrial(t *testing.T) {
	ms := witnessMonitors(t, replaySrc)
	trap := &Compiled{Name: "trap", Program: &vm.Program{Name: "trap"}} // pc 0 is outside the code
	steps := 0
	w := SearchWitness([]string{"x"}, nil, nil, 0, func(init map[string]float64) []string {
		_, ok := Schedule{{ms["set-y"]}, {trap, ms["set-y"]}}.Replay(init, func(int, []*vm.Replay, map[string]float64) bool {
			steps++
			return true
		})
		if !ok {
			return nil
		}
		return []string{"replayed"}
	})
	if w != nil {
		t.Fatalf("a trapping schedule was accepted: %v", w)
	}
	if steps != 6 {
		t.Fatalf("step ran %d times over 6 trials, want once each (the instant before the trap)", steps)
	}
}
