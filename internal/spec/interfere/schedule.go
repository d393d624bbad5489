package interfere

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"guardrails/internal/spec"
)

// Timer arithmetic behind the coupling's timer firing groups. All of it
// is overflow-aware: timer parameters are float64 nanoseconds, and
// second-scale values (1e9…1e12 ns) push both float64 integer exactness
// (2^53) and int64 products (lcm of coprime second-scale intervals) past
// their limits. Every helper reports when it cannot compute exactly so
// the coupling falls back to the conservative answer instead of
// reasoning from silently wrapped or rounded arithmetic.

// maxExactFloatInt is the largest magnitude at which every integer is
// exactly representable as a float64. Beyond it, subtracting two timer
// offsets rounds, and a divisibility test on the rounded difference can
// wrongly rule out real coincidences.
const maxExactFloatInt = 1 << 53

// maxTicks bounds the tick events the schedule enumerates; past it the
// coupling falls back to the pairwise coincidence test.
const maxTicks = 4096

// exactInt64 converts a float64 timer parameter to int64 nanoseconds,
// with ok=false when the value is not an exactly-representable integer
// (NaN, ±Inf, fractional, or past the 2^53 float64 integer limit).
func exactInt64(v float64) (int64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v != math.Trunc(v) || math.Abs(v) > maxExactFloatInt {
		return 0, false
	}
	return int64(v), true
}

// gcd64 is the non-negative greatest common divisor.
func gcd64(a, b int64) int64 {
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

// lcm64 is the least common multiple, with ok=false on int64 overflow
// (second-scale coprime intervals overflow readily: lcm(1e12+9, 1e12+7)
// ≈ 1e24).
func lcm64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	g := gcd64(a, b)
	q := a / g
	l := q * b
	if l/b != q {
		return 0, false
	}
	return l, true
}

// hyperperiod is the least common multiple of a set of timer intervals
// — the period after which the joint tick pattern repeats — with
// ok=false on overflow.
func hyperperiod(intervals []int64) (int64, bool) {
	h := int64(1)
	for _, iv := range intervals {
		var ok bool
		h, ok = lcm64(h, iv)
		if !ok {
			return 0, false
		}
	}
	return h, true
}

// monTimer is one TIMER trigger and the monitor it belongs to.
type monTimer struct {
	mon int
	t   *spec.TimerTrigger
}

// tickClasses enumerates the joint tick schedule of a set of timers and
// returns its coincidence classes: the distinct sets of monitors that
// tick at one instant, each ascending, in order of first tick. The
// window runs from the first start to T+H, T the last start or stop and
// H the lcm of the intervals: from T on the same timers run, so the
// pattern repeats with period H, and the window holds every set that
// ever ticks together. ok=false — with no result — when any parameter is not an
// exactly-representable integer, the window overflows int64, or it holds
// more than maxTicks ticks; the caller then falls back to the pairwise
// test (timerPairCoincides).
func tickClasses(timers []monTimer) (classes [][]int, hyper int64, ok bool) {
	if len(timers) == 0 {
		return nil, 0, true
	}
	type timer struct {
		mon                   int
		start, interval, stop int64
	}
	ts := make([]timer, len(timers))
	intervals := make([]int64, len(timers))
	for i, mt := range timers {
		t := timer{mon: mt.mon}
		var ok1, ok2, ok3 bool
		t.start, ok1 = exactInt64(mt.t.Start)
		t.interval, ok2 = exactInt64(mt.t.Interval)
		t.stop, ok3 = exactInt64(mt.t.Stop)
		if !ok1 || !ok2 || !ok3 || t.interval <= 0 {
			return nil, 0, false
		}
		ts[i], intervals[i] = t, t.interval
	}
	h, ok := hyperperiod(intervals)
	if !ok {
		return nil, 0, false
	}
	last := ts[0].start
	for _, t := range ts {
		last = max(last, t.start, t.stop)
	}
	end := last + h
	if end < last { // overflow
		return nil, 0, false
	}
	type tick struct {
		at  int64
		mon int
	}
	var ticks []tick
	for _, t := range ts {
		for at := t.start; at < end && (t.stop <= 0 || at < t.stop); at += t.interval {
			if len(ticks) == maxTicks {
				return nil, 0, false
			}
			ticks = append(ticks, tick{at, t.mon})
			if at > math.MaxInt64-t.interval {
				break
			}
		}
	}
	slices.SortFunc(ticks, func(a, b tick) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.mon, b.mon)
	})
	seen := map[string]bool{}
	var members []int
	var key []byte
	for i := 0; i < len(ticks); {
		members, key = members[:0], key[:0]
		for at := ticks[i].at; i < len(ticks) && ticks[i].at == at; i++ {
			if m := ticks[i].mon; len(members) == 0 || members[len(members)-1] != m {
				members = append(members, m)
				key = binary.LittleEndian.AppendUint32(key, uint32(m))
			}
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			classes = append(classes, slices.Clone(members))
		}
	}
	return classes, h, true
}

// timerPairCoincides reports whether two timer triggers can tick at the
// same simulated instant. Two arithmetic progressions start+k·interval
// coincide iff their start offset is divisible by gcd(i1, i2);
// non-integral parameters are handled conservatively (assume
// coincidence). Stop windows that provably do not overlap rule
// coincidence out.
func timerPairCoincides(a, b *spec.TimerTrigger) bool {
	// Disjoint active windows cannot coincide. A window is
	// [start, stop) with stop 0 = forever.
	if a.Stop > 0 && a.Stop <= b.Start {
		return false
	}
	if b.Stop > 0 && b.Stop <= a.Start {
		return false
	}
	// Exact conversion bounds at 2^53 (not 2^62 as this check once
	// allowed): past the float64 integer limit, s1-s2 rounds, and a
	// divisibility test on the rounded difference can wrongly rule out
	// real coincidences. When exact arithmetic is impossible, assume
	// coincidence.
	s1, ok1 := exactInt64(a.Start)
	i1, ok2 := exactInt64(a.Interval)
	s2, ok3 := exactInt64(b.Start)
	i2, ok4 := exactInt64(b.Interval)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return true // conservative: cannot reason exactly
	}
	g := gcd64(i1, i2)
	if g == 0 {
		return s1 == s2
	}
	// |s1|,|s2| ≤ 2^53, so the difference cannot overflow int64.
	return (s1-s2)%g == 0
}
