package vm

import (
	"math"
	"testing"
)

// Edge cases of the Interval abstraction: NaN propagation through
// joins and disjointness, outward-ulp rounding at the extremes of the
// float64 range, and empty (contradictory) input intervals fed to
// AnalyzeWith.

func TestIntervalJoinNaN(t *testing.T) {
	num := RangeInterval(1, 2)
	nan := Interval{NaN: true}
	j := num.Join(nan)
	if !j.Num || !j.NaN || j.Lo != 1 || j.Hi != 2 {
		t.Fatalf("join [1,2] ⊔ NaN = %v, want [1,2]|NaN", j)
	}
	// Join is commutative on the NaN flag.
	if k := nan.Join(num); k != j {
		t.Fatalf("join not commutative: %v vs %v", k, j)
	}
}

func TestIntervalDisjointNaN(t *testing.T) {
	a := Interval{Num: true, Lo: 0, Hi: 1, NaN: true}
	b := Interval{Num: true, Lo: 5, Hi: 6, NaN: true}
	// Ordinary parts are disjoint, but both may be NaN — and NaN is a
	// value both can hold, so they are not certifiably disjoint.
	if a.DisjointFrom(b) {
		t.Fatal("shared NaN possibility must defeat disjointness")
	}
	b.NaN = false
	if !a.DisjointFrom(b) {
		t.Fatal("[0,1]|NaN and [5,6] have no common value")
	}
	// A NaN-only interval is disjoint from any pure-number interval...
	nanOnly := Interval{NaN: true}
	if !nanOnly.DisjointFrom(RangeInterval(0, 100)) {
		t.Fatal("NaN-only vs numbers-only should be disjoint")
	}
	// ...but not from another NaN-admitting one.
	if nanOnly.DisjointFrom(a) {
		t.Fatal("two NaN-admitting intervals share NaN")
	}
}

func TestIntervalStringEmpty(t *testing.T) {
	if s := (Interval{}).String(); s != "∅" {
		t.Fatalf("empty interval = %q", s)
	}
	if s := (Interval{NaN: true}).String(); s != "∅|NaN" {
		t.Fatalf("NaN-only interval = %q", s)
	}
}

// fromInterval must normalize contradictory bounds to empty rather than
// carrying an inverted interval into the analyzer.
func TestFromIntervalNormalizesInverted(t *testing.T) {
	v := fromInterval(Interval{Num: true, Lo: 2, Hi: 1})
	if v.num {
		t.Fatalf("inverted interval not normalized to empty: %+v", v)
	}
	v = fromInterval(Interval{Num: true, Lo: math.NaN(), Hi: 1})
	if v.num {
		t.Fatalf("NaN bound not normalized to empty: %+v", v)
	}
}

// Outward-ulp nudging at the edges: infinities are already maximal, NaN
// widens to the full axis, and the largest finite magnitudes overflow
// outward to infinity instead of wrapping inward.
func TestOutwardUlpAtExtremes(t *testing.T) {
	if v := outLo(math.Inf(-1)); !math.IsInf(v, -1) {
		t.Fatalf("outLo(-Inf) = %v", v)
	}
	if v := outHi(math.Inf(1)); !math.IsInf(v, 1) {
		t.Fatalf("outHi(+Inf) = %v", v)
	}
	// A nudge never moves inward: outLo(+Inf) lands on MaxFloat64,
	// which is still an upper... no: outLo moves toward -Inf, so it is
	// only ever applied to lower bounds. At +Inf it must stay a valid
	// lower bound for {+Inf}.
	if v := outLo(math.Inf(1)); v > math.Inf(1) {
		t.Fatalf("outLo(+Inf) = %v moved above +Inf", v)
	}
	if v := outLo(math.NaN()); !math.IsInf(v, -1) {
		t.Fatalf("outLo(NaN) = %v, want -Inf", v)
	}
	if v := outHi(math.NaN()); !math.IsInf(v, 1) {
		t.Fatalf("outHi(NaN) = %v, want +Inf", v)
	}
	if v := outHi(math.MaxFloat64); !math.IsInf(v, 1) {
		t.Fatalf("outHi(MaxFloat64) = %v, want overflow to +Inf", v)
	}
	if v := outLo(-math.MaxFloat64); !math.IsInf(v, -1) {
		t.Fatalf("outLo(-MaxFloat64) = %v, want overflow to -Inf", v)
	}
	// Finite values nudge by exactly one ulp, outward only.
	if v := outHi(1.0); v <= 1.0 || v != math.Nextafter(1.0, math.Inf(1)) {
		t.Fatalf("outHi(1) = %v", v)
	}
	if v := outLo(1.0); v >= 1.0 || v != math.Nextafter(1.0, math.Inf(-1)) {
		t.Fatalf("outLo(1) = %v", v)
	}
	if v := outHi(0.0); v <= 0.0 {
		t.Fatalf("outHi(0) = %v, want smallest positive subnormal", v)
	}
}

// divFixture divides r1 = LOAD(a) into 10 and returns the quotient:
// open-world analysis must reject it (divisor may be ordinary zero);
// refined analysis admits it whenever the env excludes zero.
func divFixture(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("div-fixture")
	b.Load(1, "a")
	b.MovI(0, 10)
	b.ALU(OpDiv, 0, 0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// An empty input interval is a contradiction — the deployment certifies
// the cell holds no value at all. The analysis must stay sound (never
// panic, never claim a result the replay contradicts); the natural
// outcome is that code after the LOAD is analyzed against the empty
// value and claims about it are vacuous or the program is rejected.
func TestAnalyzeWithEmptyDivisorEnv(t *testing.T) {
	p := divFixture(t)
	empty := func(cell int32) (Interval, bool) { return Interval{}, true }
	a, err := AnalyzeWith(p, NumBuiltinHelpers, empty)
	if err != nil {
		// Rejection is a sound answer to a contradictory premise.
		t.Logf("empty input interval rejected: %v", err)
		return
	}
	// If the analyzer accepts, its exit claims must still cover every
	// run the real interpreter can produce — for an unpopulated store
	// the LOAD reads 0, so safeDiv yields 0... but a deployment env
	// claiming emptiness is making that run impossible; the only hard
	// requirement is internal consistency of the proof object.
	if a.MaxSteps <= 0 || a.MaxSteps > MaxInsns {
		t.Fatalf("accepted analysis has implausible step bound %d", a.MaxSteps)
	}
}

// A NaN-admitting input must flow through the analysis: the exit-fact
// interval has to cover the real replay's result when the feature is
// NaN.
func TestAnalyzeWithNaNInputSound(t *testing.T) {
	b := NewBuilder("nan-flow")
	b.Load(1, "a")
	b.ALUI(OpAddI, 1, 1, 1) // NaN + 1 = NaN
	b.JmpIfI(OpJGtI, 1, 0, "pos")
	b.MovI(0, 0)
	b.Exit()
	b.Label("pos")
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	env := func(cell int32) (Interval, bool) {
		return Interval{Num: true, Lo: -1, Hi: 1, NaN: true}, true
	}
	a, err := AnalyzeWith(p, NumBuiltinHelpers, env)
	if err != nil {
		t.Fatalf("NaN-admitting env rejected: %v", err)
	}
	rec := ReplayProgram(p, map[string]float64{"a": math.NaN()}, 0, 0)
	if rec.Err != nil {
		t.Fatalf("replay trapped: %v", rec.Err)
	}
	// NaN > 0 is false, so the replay exits 0; some exit fact must
	// admit that value.
	covered := false
	for _, ef := range a.Exits {
		if ef.R0.Num && ef.R0.Lo <= rec.R0 && rec.R0 <= ef.R0.Hi {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("exit facts %v do not cover replayed result %v on NaN input", a.Exits, rec.R0)
	}
}
