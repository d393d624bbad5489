package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 {
		t.Fatal("zero value should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 {
		t.Fatalf("count = %d, want 8", w.n)
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 {
		t.Errorf("single obs: mean=%v", w.Mean())
	}
}

func TestWelfordPropertyMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				continue
			}
			w.Add(x)
			n++
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if n == 0 {
			return true
		}
		return w.Mean() >= lo-1e-6 && w.Mean() <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
