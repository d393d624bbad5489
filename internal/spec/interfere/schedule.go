package interfere

import (
	"math"
	"sort"

	"guardrails/internal/spec"
)

// Timer arithmetic shared by the coincidence check (timersCanCoincide)
// and the deployment model checker (internal/spec/modelcheck), which
// schedules transitions over one timer hyperperiod. All of it is
// overflow-aware: timer parameters are float64 nanoseconds, and
// second-scale values (1e9…1e12 ns) push both float64 integer exactness
// (2^53) and int64 products (lcm of coprime second-scale intervals) past
// their limits. Every helper reports when it cannot compute exactly so
// callers fall back to the conservative answer instead of reasoning
// from silently wrapped or rounded arithmetic.

// maxExactFloatInt is the largest magnitude at which every integer is
// exactly representable as a float64. Beyond it, subtracting two timer
// offsets rounds, and a divisibility test on the rounded difference can
// wrongly rule out real coincidences.
const maxExactFloatInt = 1 << 53

// ExactInt64 converts a float64 timer parameter to int64 nanoseconds,
// with ok=false when the value is not an exactly-representable integer
// (NaN, ±Inf, fractional, or past the 2^53 float64 integer limit).
func ExactInt64(v float64) (int64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v != math.Trunc(v) || math.Abs(v) > maxExactFloatInt {
		return 0, false
	}
	return int64(v), true
}

// Gcd64 is the non-negative greatest common divisor.
func Gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Lcm64 is the least common multiple, with ok=false on int64 overflow
// (second-scale coprime intervals overflow readily: lcm(1e12+9, 1e12+7)
// ≈ 1e24).
func Lcm64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	g := Gcd64(a, b)
	q := a / g
	l := q * b
	if l/b != q {
		return 0, false
	}
	return l, true
}

// Hyperperiod is the least common multiple of a set of timer intervals
// — the period after which the joint tick pattern repeats — with
// ok=false on overflow.
func Hyperperiod(intervals []int64) (int64, bool) {
	h := int64(1)
	for _, iv := range intervals {
		var ok bool
		h, ok = Lcm64(h, iv)
		if !ok {
			return 0, false
		}
	}
	return h, true
}

// TickGroup is one coincidence class of timer ticks: the set of timers
// (by index into the input slice) that tick at the same instant.
type TickGroup struct {
	// Members indexes the timers ticking at this instant, ascending.
	Members []int
}

// TimerTicks enumerates the joint tick schedule of a set of timers over
// one hyperperiod: every instant in [base, base+H) at which at least
// one timer ticks (base = earliest start, H = lcm of the intervals),
// grouped by instant. Stop windows are respected within the enumerated
// window. ok=false — with no partial result — when any parameter is not
// an exactly-representable integer, the hyperperiod overflows int64, or
// the schedule exceeds maxTicks tick events; callers then fall back to
// conservative coincidence.
func TimerTicks(timers []*spec.TimerTrigger, maxTicks int) (groups []TickGroup, hyper int64, ok bool) {
	if len(timers) == 0 {
		return nil, 0, true
	}
	starts := make([]int64, len(timers))
	intervals := make([]int64, len(timers))
	stops := make([]int64, len(timers))
	for i, t := range timers {
		var ok bool
		if starts[i], ok = ExactInt64(t.Start); !ok {
			return nil, 0, false
		}
		if intervals[i], ok = ExactInt64(t.Interval); !ok {
			return nil, 0, false
		}
		if stops[i], ok = ExactInt64(t.Stop); !ok {
			return nil, 0, false
		}
		if intervals[i] <= 0 {
			return nil, 0, false
		}
	}
	h, ok2 := Hyperperiod(intervals)
	if !ok2 {
		return nil, 0, false
	}
	base := starts[0]
	for _, s := range starts[1:] {
		if s < base {
			base = s
		}
	}
	end := base + h
	if end < base { // base+h overflow
		return nil, 0, false
	}
	byOffset := map[int64][]int{}
	ticks := 0
	for i := range timers {
		for t := starts[i]; t < end; {
			if stops[i] > 0 && t >= stops[i] {
				break
			}
			ticks++
			if ticks > maxTicks {
				return nil, 0, false
			}
			off := t - base
			byOffset[off] = append(byOffset[off], i)
			next := t + intervals[i]
			if next < t { // int64 overflow
				break
			}
			t = next
		}
	}
	offsets := make([]int64, 0, len(byOffset))
	for off := range byOffset {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	groups = make([]TickGroup, 0, len(offsets))
	for _, off := range offsets {
		members := byOffset[off]
		sort.Ints(members)
		groups = append(groups, TickGroup{Members: members})
	}
	return groups, h, true
}
