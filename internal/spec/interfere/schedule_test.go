package interfere

import (
	"fmt"
	"math/rand"
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
		got, ok := exactInt64(c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("exactInt64(%g) = %d, %v; want %d, %v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestLcm64Overflow(t *testing.T) {
	if l, ok := lcm64(4, 6); !ok || l != 12 {
		t.Errorf("lcm64(4,6) = %d, %v", l, ok)
	}
	if l, ok := lcm64(0, 5); !ok || l != 0 {
		t.Errorf("lcm64(0,5) = %d, %v", l, ok)
	}
	// Coprime second-scale intervals: lcm ≈ 1e24 overflows int64.
	if _, ok := lcm64(1000000007000000000, 999999999900000007); ok {
		t.Error("second-scale coprime lcm did not report overflow")
	}
	if _, ok := hyperperiod([]int64{2, 3, 1000000007000000000, 999999999900000007}); ok {
		t.Error("hyperperiod over overflowing set did not report failure")
	}
}

// timersOf gives each timer a monitor of its own, numbered in order.
func timersOf(ts ...*spec.TimerTrigger) []monTimer {
	out := make([]monTimer, len(ts))
	for i, t := range ts {
		out[i] = monTimer{mon: i, t: t}
	}
	return out
}

func TestTimerTicksBasic(t *testing.T) {
	cases := []struct {
		timers []*spec.TimerTrigger
		hyper  int64
		want   [][]int
	}{
		// Ticks in [0,6): t0 at 0,2,4; t1 at 0,3 → classes {0,1} {0} {1}.
		{[]*spec.TimerTrigger{{Start: 0, Interval: 2}, {Start: 0, Interval: 3}}, 6, [][]int{{0, 1}, {0}, {1}}},
		// Offset starts: t0 at 0,4,8,12…; t1 at 6,12…; they first meet at
		// 12, past the first start's hyperperiod [0,12).
		{[]*spec.TimerTrigger{{Start: 0, Interval: 4}, {Start: 6, Interval: 6}}, 12, [][]int{{0}, {1}, {0, 1}}},
	}
	for _, c := range cases {
		classes, hyper, ok := tickClasses(timersOf(c.timers...))
		if !ok || hyper != c.hyper || !reflect.DeepEqual(classes, c.want) {
			t.Errorf("%+v %+v: classes %v, hyper %d, ok %v; want %v, %d", c.timers[0], c.timers[1], classes, hyper, ok, c.want, c.hyper)
		}
	}
}

func TestTimerTicksRespectsStopAndBounds(t *testing.T) {
	// Timer 0 stops at t=3: it ticks at 0 and 2 only, so timer 1's tick
	// at 6 is alone and no class pairs them past offset 0.
	classes, hyper, ok := tickClasses(timersOf(&spec.TimerTrigger{Start: 0, Interval: 2, Stop: 3}, &spec.TimerTrigger{Start: 0, Interval: 3}))
	if want := [][]int{{0, 1}, {0}, {1}}; !ok || hyper != 6 || !reflect.DeepEqual(classes, want) {
		t.Errorf("stop window: ok=%v hyper=%d classes=%v, want %v", ok, hyper, classes, want)
	}
	// Exceeding maxTicks must fail, not truncate silently.
	if _, _, ok := tickClasses(timersOf(&spec.TimerTrigger{Start: 0, Interval: 1}, &spec.TimerTrigger{Start: 0, Interval: 1 << 20})); ok {
		t.Error("tick explosion not reported")
	}
	// Non-integral and oversized parameters are rejected.
	if _, _, ok := tickClasses(timersOf(&spec.TimerTrigger{Start: 0.5, Interval: 2})); ok {
		t.Error("fractional start accepted")
	}
	if _, _, ok := tickClasses(timersOf(&spec.TimerTrigger{Start: float64(1 << 60), Interval: 2})); ok {
		t.Error("inexact start accepted")
	}
}

// TestTimerClassesMatchBruteForce: on random small timers (start and
// interval at most 12, some with a stop), the tick classes are exactly
// the distinct sets of timers a tick-by-tick simulation sees ticking at
// one instant over a horizon of three hyperperiods past every start
// and stop.
func TestTimerClassesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for iter := 0; iter < 2000; iter++ {
		ts := make([]*spec.TimerTrigger, 1+rng.Intn(4))
		for i := range ts {
			ts[i] = &spec.TimerTrigger{Start: float64(rng.Intn(13)), Interval: float64(1 + rng.Intn(12))}
			if rng.Intn(3) == 0 {
				ts[i].Stop = float64(1 + rng.Intn(40))
			}
		}
		classes, hyper, ok := tickClasses(timersOf(ts...))
		if !ok {
			continue // more than maxTicks in the window
		}
		compared++
		want := map[string]bool{}
		for at := 0; at < 52+3*int(hyper); at++ {
			var members []int
			for i, tt := range ts {
				start, iv, stop := int(tt.Start), int(tt.Interval), int(tt.Stop)
				if at >= start && (at-start)%iv == 0 && (stop <= 0 || at < stop) {
					members = append(members, i)
				}
			}
			if len(members) > 0 {
				want[fmt.Sprint(members)] = true
			}
		}
		got := map[string]bool{}
		for _, c := range classes {
			got[fmt.Sprint(c)] = true
		}
		if len(got) != len(classes) || !reflect.DeepEqual(got, want) {
			for _, tt := range ts {
				t.Logf("TIMER(%g, %g, %g)", tt.Start, tt.Interval, tt.Stop)
			}
			t.Fatalf("classes %v, simulation %v", classes, want)
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d of 2000 schedules enumerated", compared)
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
