package vm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// branchProg returns a program that violates (returns 0) iff x > 10,
// with the cell index of x.
func branchProg(t *testing.T) (*Program, int32) {
	t.Helper()
	b := NewBuilder("branch")
	cell := b.Sym("x")
	b.Load(1, "x")
	b.JmpIfI(OpJGtI, 1, 10, "viol")
	b.MovI(0, 1)
	b.Exit()
	b.Label("viol")
	b.MovI(0, 0)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p, cell
}

// TestAnalyzeWithRefinement: the same program can violate open-world
// but is proven violation-free once the input is certified inside the
// threshold — the deployment analyzer's dead-guardrail primitive.
func TestAnalyzeWithRefinement(t *testing.T) {
	p, cell := branchProg(t)

	open, err := AnalyzeWith(p, NumBuiltinHelpers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !open.CanViolate() {
		t.Error("open-world analysis proved violation-freedom of a violable program")
	}

	env := func(c int32) (Interval, bool) {
		if c == cell {
			return RangeInterval(0, 5), true
		}
		return Interval{}, false
	}
	refined, err := AnalyzeWith(p, NumBuiltinHelpers, env)
	if err != nil {
		t.Fatal(err)
	}
	if refined.CanViolate() {
		t.Error("x certified in [0,5] but the x>10 branch still analyzed reachable")
	}

	hot := func(c int32) (Interval, bool) { return RangeInterval(20, 30), true }
	always, err := AnalyzeWith(p, NumBuiltinHelpers, hot)
	if err != nil {
		t.Fatal(err)
	}
	if !always.CanViolate() {
		t.Error("x certified in [20,30] must keep the violation exit reachable")
	}
}

// TestAnalysisStoreFacts: reachable OpStores surface as certified value
// ranges — the producer certificates the interference analyzer joins.
func TestAnalysisStoreFacts(t *testing.T) {
	b := NewBuilder("storer")
	kCell := b.Sym("k")
	b.Load(1, "x")
	b.MovI(2, 5)
	b.JmpIfI(OpJGtI, 1, 0, "high")
	b.Store("k", 2)
	b.MovI(0, 1)
	b.Exit()
	b.Label("high")
	b.MovI(3, 7)
	b.Store("k", 3)
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeWith(p, NumBuiltinHelpers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stores) != 2 {
		t.Fatalf("Stores = %+v, want 2 facts", a.Stores)
	}
	var iv Interval
	for i, s := range a.Stores {
		if s.Cell != kCell {
			t.Fatalf("store %d writes cell %d, want k", i, s.Cell)
		}
		if i == 0 {
			iv = s.Val
		} else {
			iv = iv.Join(s.Val)
		}
	}
	if iv.Lo != 5 || iv.Hi != 7 || iv.NaN {
		t.Errorf("stores to k join to %s, want [5,7]", iv)
	}
	if a.CanViolate() {
		t.Error("program always returns 1 yet CanViolate reported true")
	}
}

// TestAnalyzeWithDivisorCollapse: a division that verifies open-world
// (divisor unknown) must be rejected once the env proves the divisor
// constant zero — the GI008 condition.
func TestAnalyzeWithDivisorCollapse(t *testing.T) {
	b := NewBuilder("divider")
	dCell := b.Sym("d")
	b.Load(1, "d")
	b.Load(2, "x")
	b.ALU(OpDiv, 2, 2, 1)
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeWith(p, NumBuiltinHelpers, nil); err != nil {
		t.Fatalf("open-world analysis rejected a guarded division: %v", err)
	}
	zero := func(c int32) (Interval, bool) {
		if c == dCell {
			return RangeInterval(0, 0), true
		}
		return Interval{}, false
	}
	if _, err := AnalyzeWith(p, NumBuiltinHelpers, zero); err == nil {
		t.Error("divisor certified [0,0] but AnalyzeWith passed")
	}
}

// TestAnalyzeWithDependsOnlyOnLoadedCells pins the assumption the
// deployment checkers' analysis memo (interfere.Deployment.Analysis)
// rests on: the analyzer reads its CellEnv for the cells the program
// LOADs and nothing else. Two envs that agree on LoadedKeys' cells and
// differ arbitrarily elsewhere — a range against no certificate at all,
// on STORE targets and on cells the program never names — must give the
// same proof object or the same rejection. If the analyzer ever asks the
// env about a STORE target or on behalf of a helper, this fails before
// the memo goes unsound.
func TestAnalyzeWithDependsOnlyOnLoadedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10ad))
	symbols := []string{"a", "b", "c", "d", "e"}
	randAnswer := func() (Interval, bool) {
		lo := float64(rng.Intn(40) - 20)
		switch rng.Intn(6) {
		case 0:
			return Interval{}, false
		case 1:
			return TopInterval(), true
		case 2:
			return Interval{Num: true, Lo: lo, Hi: lo, NaN: true}, true
		case 3:
			return Interval{Num: true, Lo: 1, Hi: -1}, true // bottom: degrades to top
		case 4:
			return RangeInterval(math.Inf(-1), lo), true
		default:
			return RangeInterval(lo, lo+float64(rng.Intn(10))), true
		}
	}
	type answer struct {
		iv Interval
		ok bool
	}
	envOf := func(as []answer) CellEnv {
		return func(c int32) (Interval, bool) { return as[c].iv, as[c].ok }
	}
	render := func(a *Analysis, err error) string { return fmt.Sprintf("%+v / %v", a, err) }

	analyzed, differed := 0, 0
	for trial := 0; trial < 2000; trial++ {
		p := randProgram(rng, symbols)
		loaded := map[string]bool{}
		for _, k := range LoadedKeys(p) {
			loaded[k] = true
		}
		one, two := make([]answer, len(symbols)), make([]answer, len(symbols))
		for c, key := range symbols {
			one[c].iv, one[c].ok = randAnswer()
			two[c] = one[c]
			if !loaded[key] {
				two[c].iv, two[c].ok = randAnswer()
				if two[c] != one[c] {
					differed++
				}
			}
		}
		a1, err1 := AnalyzeWith(p, NumBuiltinHelpers, envOf(one))
		a2, err2 := AnalyzeWith(p, NumBuiltinHelpers, envOf(two))
		if got, want := render(a2, err2), render(a1, err1); got != want {
			t.Fatalf("trial %d: envs agree on the loaded cells %v but the analyses differ:\n%s\n%s\n%s",
				trial, LoadedKeys(p), want, got, p)
		}
		if err1 == nil {
			analyzed++
		}
	}
	// The generator must reach the analysis, and the envs must differ.
	if analyzed < 100 || differed < 1000 {
		t.Fatalf("degenerate mix: %d programs analyzed, %d differing unloaded cells", analyzed, differed)
	}
}

// TestAnalyzeWithBottomEnv: a nonsensical (empty) caller interval must
// degrade to top, not poison the fixpoint.
func TestAnalyzeWithBottomEnv(t *testing.T) {
	p, cell := branchProg(t)
	bottom := func(c int32) (Interval, bool) {
		if c == cell {
			return Interval{Num: true, Lo: 1, Hi: -1}, true
		}
		return Interval{}, false
	}
	a, err := AnalyzeWith(p, NumBuiltinHelpers, bottom)
	if err != nil {
		t.Fatal(err)
	}
	if !a.CanViolate() {
		t.Error("bottom env interval must fall back to top (conservative)")
	}
}

func TestIntervalOps(t *testing.T) {
	a := RangeInterval(0, 1)
	b := RangeInterval(2, 3)
	if !a.DisjointFrom(b) || !b.DisjointFrom(a) {
		t.Error("[0,1] and [2,3] must be disjoint")
	}
	if a.DisjointFrom(RangeInterval(1, 2)) {
		t.Error("[0,1] and [1,2] share 1")
	}
	if a.DisjointFrom(TopInterval()) {
		t.Error("nothing is disjoint from top")
	}
	// Two intervals that may both be NaN share that value: never
	// disjoint, even when the ordinary parts are.
	nanA := Interval{Num: true, Lo: 0, Hi: 1, NaN: true}
	nanB := Interval{Num: true, Lo: 5, Hi: 6, NaN: true}
	if nanA.DisjointFrom(nanB) {
		t.Error("shared NaN possibility must block disjointness")
	}
	if !nanA.DisjointFrom(b) {
		t.Error("[0,1]|NaN vs [2,3]: no ordinary value in common, must be disjoint")
	}

	j := a.Join(b)
	if j.Lo != 0 || j.Hi != 3 {
		t.Errorf("Join = %s, want [0,3]", j)
	}
}

// TestVerifyErrorNames: load-time verification failures name the
// program so multi-guardrail deployment errors are attributable.
func TestVerifyErrorNames(t *testing.T) {
	p := &Program{
		Name:    "bad-guardrail",
		Code:    []Instr{{Op: OpJmp, Off: -1}, {Op: OpExit}},
		Symbols: nil,
	}
	err := Verify(p, NumBuiltinHelpers)
	var verr *VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("Verify returned %T, want *VerifyError", err)
	}
	if verr.Name != "bad-guardrail" {
		t.Errorf("VerifyError.Name = %q", verr.Name)
	}
	if !strings.Contains(err.Error(), `"bad-guardrail"`) {
		t.Errorf("Error() does not name the program: %s", err)
	}

	anon := &Program{Code: []Instr{{Op: OpJmp, Off: -1}, {Op: OpExit}}}
	if msg := Verify(anon, NumBuiltinHelpers).Error(); strings.Contains(msg, `""`) {
		t.Errorf("anonymous program error renders empty name: %s", msg)
	}
}
