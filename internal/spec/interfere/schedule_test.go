package interfere

import (
	"reflect"
	"testing"

	"guardrails/internal/spec"
)

func TestExactInt64Boundary(t *testing.T) {
	cases := []struct {
		v    float64
		want int64
		ok   bool
	}{
		{0, 0, true},
		{-3, -3, true},
		{1e9, 1000000000, true},
		{1 << 53, 1 << 53, true},
		{-(1 << 53), -(1 << 53), true},
		{float64(1<<53) * 2, 0, false}, // past the exact-integer range
		{1.5, 0, false},
		{float64(1 << 62), 0, false}, // representable but not exact territory
	}
	for _, c := range cases {
		got, ok := ExactInt64(c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ExactInt64(%g) = %d, %v; want %d, %v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestLcm64Overflow(t *testing.T) {
	if l, ok := Lcm64(4, 6); !ok || l != 12 {
		t.Errorf("Lcm64(4,6) = %d, %v", l, ok)
	}
	if l, ok := Lcm64(0, 5); !ok || l != 0 {
		t.Errorf("Lcm64(0,5) = %d, %v", l, ok)
	}
	// Coprime second-scale intervals: lcm ≈ 1e24 overflows int64.
	if _, ok := Lcm64(1000000007000000000, 999999999900000007); ok {
		t.Error("second-scale coprime lcm did not report overflow")
	}
	if _, ok := Hyperperiod([]int64{2, 3, 1000000007000000000, 999999999900000007}); ok {
		t.Error("hyperperiod over overflowing set did not report failure")
	}
}

func TestTimerTicksBasic(t *testing.T) {
	timers := []*spec.TimerTrigger{
		{Start: 0, Interval: 2},
		{Start: 0, Interval: 3},
	}
	groups, hyper, ok := TimerTicks(timers, 100)
	if !ok || hyper != 6 {
		t.Fatalf("ok=%v hyper=%d", ok, hyper)
	}
	// Ticks in [0,6): t0 at 0,2,4; t1 at 0,3 → offsets 0{0,1} 2{0} 3{1} 4{0}.
	want := [][]int{{0, 1}, {0}, {1}, {0}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %+v", groups)
	}
	for i, g := range groups {
		if !reflect.DeepEqual(g.Members, want[i]) {
			t.Errorf("group %d members = %v, want %v", i, g.Members, want[i])
		}
	}
}

func TestTimerTicksRespectsStopAndBounds(t *testing.T) {
	// Timer 0 stops at t=3: within the joint hyperperiod [0,6) it ticks
	// at 0 and 2 only, so no group exists at offset 4.
	timers := []*spec.TimerTrigger{
		{Start: 0, Interval: 2, Stop: 3},
		{Start: 0, Interval: 3},
	}
	groups, hyper, ok := TimerTicks(timers, 100)
	if !ok || hyper != 6 || len(groups) != 3 {
		t.Fatalf("stop window: ok=%v hyper=%d groups=%+v", ok, hyper, groups)
	}
	// Offsets 0{0,1} 2{0} 3{1}: no group for timer 0 at offset 4.
	if want := [][]int{{0, 1}, {0}, {1}}; !reflect.DeepEqual([][]int{groups[0].Members, groups[1].Members, groups[2].Members}, want) {
		t.Errorf("groups = %+v, want members %v", groups, want)
	}
	// Exceeding maxTicks must fail, not truncate silently.
	if _, _, ok := TimerTicks([]*spec.TimerTrigger{{Start: 0, Interval: 1}, {Start: 0, Interval: 1 << 20}}, 10); ok {
		t.Error("tick explosion not reported")
	}
	// Non-integral and oversized parameters are rejected.
	if _, _, ok := TimerTicks([]*spec.TimerTrigger{{Start: 0.5, Interval: 2}}, 10); ok {
		t.Error("fractional start accepted")
	}
	if _, _, ok := TimerTicks([]*spec.TimerTrigger{{Start: float64(1 << 60), Interval: 2}}, 10); ok {
		t.Error("inexact start accepted")
	}
}

// Regression: huge second-scale starts lose integer exactness in
// float64, so the rounded difference can wrongly appear divisible (or
// not) by the interval gcd. The analyzer must fall back to assuming
// coincidence — flagging the conflict — rather than trusting rounded
// arithmetic to prove the timers apart.
func TestTimerCoincidenceConservativePastExactRange(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(2305843009213693952, 7000) },
    rule: { LOAD(x) <= 1 },
    action: { SAVE(knob, 0) }
}
guardrail b {
    trigger: { TIMER(2, 7000) },
    rule: { LOAD(y) <= 1 },
    action: { SAVE(knob, 1) }
}`, 0))
	if c := codes(r); c[CodeSaveConflict] != 1 {
		t.Errorf("2^61-scale start not treated conservatively: %v", r.Diagnostics)
	}
}

// Within the exact range, the precise divisibility argument still
// separates offset timers.
func TestTimerCoincidenceExactAtBoundary(t *testing.T) {
	r := Analyze(deployment(t, `
guardrail a {
    trigger: { TIMER(9007199254740992, 2) },
    rule: { LOAD(x) <= 1 },
    action: { SAVE(knob, 0) }
}
guardrail b {
    trigger: { TIMER(1, 2) },
    rule: { LOAD(y) <= 1 },
    action: { SAVE(knob, 1) }
}`, 0))
	if c := codes(r); c[CodeSaveConflict] != 0 {
		t.Errorf("provably-disjoint timers at the 2^53 boundary flagged: %v", r.Diagnostics)
	}
}
