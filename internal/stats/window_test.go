package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.Mean() != 0 {
		t.Fatal("fresh window state wrong")
	}
	w.Add(1)
	w.Add(2)
	w.Add(3)
	if w.Len() != 3 || w.sum != 6 || w.Mean() != 2 {
		t.Errorf("sum=%v mean=%v", w.sum, w.Mean())
	}
	ev, full := w.Add(10)
	if !full || ev != 1 {
		t.Errorf("evicted = %v (%v), want 1", ev, full)
	}
	if w.sum != 15 {
		t.Errorf("sum after evict = %v, want 15", w.sum)
	}
	vals := w.Values()
	if len(vals) != 3 || vals[0] != 2 || vals[1] != 3 || vals[2] != 10 {
		t.Errorf("values = %v", vals)
	}
}

func TestWindowSumRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewWindow(16)
	var hist []float64
	for i := 0; i < 5000; i++ {
		x := rng.Float64()*200 - 100
		w.Add(x)
		hist = append(hist, x)
		lo := len(hist) - 16
		if lo < 0 {
			lo = 0
		}
		var wantSum float64
		for _, v := range hist[lo:] {
			wantSum += v
		}
		if math.Abs(w.sum-wantSum) > 1e-6 {
			t.Fatalf("i=%d sum drift: %v vs %v", i, w.sum, wantSum)
		}
	}
}

func TestWindowCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewWindow(0)
}

func TestWindowPropertyMeanBounded(t *testing.T) {
	f := func(xs []float64, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		w := NewWindow(capacity)
		ok := true
		for _, x := range xs {
			// Bound magnitudes: the running sum loses precision (and can
			// overflow) near MaxFloat64, which is outside the intended
			// operating range for window aggregates.
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				continue
			}
			w.Add(x)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range w.Values() {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			tol := 1e-6 * (1 + math.Abs(lo) + math.Abs(hi))
			if w.Mean() < lo-tol || w.Mean() > hi+tol {
				ok = false
			}
			if w.Len() > capacity {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateWindow(t *testing.T) {
	r := NewRateWindow(4)
	if r.Rate() != 0 {
		t.Error("empty rate should be 0")
	}
	r.Add(true)
	r.Add(true)
	r.Add(false)
	if !almostEqual(r.Rate(), 2.0/3.0, 1e-12) {
		t.Errorf("rate = %v", r.Rate())
	}
	r.Add(false)
	r.Add(false) // evicts first true
	if !almostEqual(r.Rate(), 0.25, 1e-12) {
		t.Errorf("rate after slide = %v, want 0.25", r.Rate())
	}
	if r.size != 4 {
		t.Errorf("len = %d", r.size)
	}
}

func TestRateWindowSlidingExact(t *testing.T) {
	r := NewRateWindow(8)
	var hist []bool
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		v := rng.Intn(3) == 0
		r.Add(v)
		hist = append(hist, v)
		lo := len(hist) - 8
		if lo < 0 {
			lo = 0
		}
		var c int
		for _, b := range hist[lo:] {
			if b {
				c++
			}
		}
		want := float64(c) / float64(len(hist)-lo)
		if !almostEqual(r.Rate(), want, 1e-12) {
			t.Fatalf("i=%d rate=%v want %v", i, r.Rate(), want)
		}
	}
}
