package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 100} {
		h.Add(x)
	}
	if h.total != 7 {
		t.Fatalf("count = %d", h.total)
	}
	bins := h.bins
	var inRange uint64
	for _, b := range bins {
		inRange += b
	}
	if inRange != 4 { // -1, 10 and 100 are out of range
		t.Errorf("in-range count = %d, want 4", inRange)
	}
	if bins[0] != 2 { // 0 and 0.5
		t.Errorf("bin0 = %d, want 2", bins[0])
	}
	if bins[5] != 1 || bins[9] != 1 {
		t.Errorf("bins = %v", bins)
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	// A value just below hi must land in the last bin even if float
	// division rounds up.
	h := NewHistogram(0, 0.3, 3)
	h.Add(math.Nextafter(0.3, 0))
	if h.bins[2] != 1 {
		t.Errorf("observation lost: bins=%v", h.bins)
	}
}

func TestHistogramMeanAndReset(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(2)
	h.Add(4)
	if !almostEqual(h.Mean(), 3, 1e-12) {
		t.Errorf("mean = %v", h.Mean())
	}
	h.Reset()
	if h.total != 0 || !math.IsNaN(h.Mean()) {
		t.Error("reset failed")
	}
}

func TestHistogramProbabilitiesSumToOne(t *testing.T) {
	h := NewHistogram(0, 1, 8)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		h.Add(rng.Float64())
	}
	for _, eps := range []float64{0, 0.5} {
		p := h.Probabilities(eps)
		var sum float64
		for _, v := range p {
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("eps=%v: probabilities sum to %v", eps, sum)
		}
	}
	// Empty histogram: uniform.
	e := NewHistogram(0, 1, 4)
	p := e.Probabilities(0)
	for _, v := range p {
		if !almostEqual(v, 0.25, 1e-12) {
			t.Errorf("empty hist probabilities = %v", p)
		}
	}
}

func TestPSIDetectsShift(t *testing.T) {
	ref := NewHistogram(0, 100, 20)
	same := NewHistogram(0, 100, 20)
	shifted := NewHistogram(0, 100, 20)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		ref.Add(rng.NormFloat64()*10 + 30)
		same.Add(rng.NormFloat64()*10 + 30)
		shifted.Add(rng.NormFloat64()*10 + 70)
	}
	if psi := ref.PSI(same); psi > 0.05 {
		t.Errorf("same-distribution PSI = %v, want < 0.05", psi)
	}
	if psi := ref.PSI(shifted); psi < 0.25 {
		t.Errorf("shifted PSI = %v, want > 0.25", psi)
	}
}

func TestPSIShapeMismatchPanics(t *testing.T) {
	a := NewHistogram(0, 1, 4)
	b := NewHistogram(0, 1, 5)
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	a.PSI(b)
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{{0, 1, 0}, {1, 1, 4}, {2, 1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) should panic", c.lo, c.hi, c.n)
				}
			}()
			NewHistogram(c.lo, c.hi, c.n)
		}()
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(20)
	for _, x := range []float64{0.5, 1, 3, 1000, 1 << 25} {
		h.Add(x)
	}
	if h.total != 5 {
		t.Fatalf("count = %d", h.total)
	}
	// 0.5 in zero bucket; 1 in [1,2); 3 in [2,4); 1000 in [512,1024);
	// 1<<25 clamps to top bin.
	if h.zero != 1 || h.bins[0] != 1 || h.bins[1] != 1 || h.bins[9] != 1 || h.bins[19] != 1 {
		t.Errorf("buckets: zero=%d bins=%v", h.zero, h.bins)
	}
}

func TestLogHistogramQuantile(t *testing.T) {
	h := NewLogHistogram(30)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		h.Add(rng.ExpFloat64() * 100)
	}
	p50 := h.Quantile(0.5)
	// Exponential(mean 100) median is ~69.3. Log buckets are coarse;
	// accept the containing power-of-two range.
	if p50 < 32 || p50 > 160 {
		t.Errorf("p50 = %v, want within [32,160]", p50)
	}
	if h.Quantile(0.99) <= p50 {
		t.Error("p99 should exceed p50")
	}
	h.Reset()
	if h.total != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Error("reset failed")
	}
	if h.Summary() != (Summary{}) {
		t.Error("empty log histogram must summarize to the zero Summary")
	}
}

func TestLogHistogramMaxExpPanics(t *testing.T) {
	for _, n := range []int{0, -1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("maxExp=%d should panic", n)
				}
			}()
			NewLogHistogram(n)
		}()
	}
}

// TestLogHistogramBucketBoundaries: bins[i] is the half-open range
// [2^i, 2^(i+1)) exactly — the largest double below a power of two
// stays in the bin below it, which int(math.Log2(x)) got wrong for
// almost every boundary.
func TestLogHistogramBucketBoundaries(t *testing.T) {
	const maxExp = 40
	bin := func(x float64) int {
		h := NewLogHistogram(maxExp)
		h.Add(x)
		if h.zero == 1 {
			return -1
		}
		for i, c := range h.bins {
			if c == 1 {
				return i
			}
		}
		t.Fatalf("Add(%v) landed nowhere", x)
		return 0
	}
	for k := 0; k <= maxExp; k++ {
		p := math.Ldexp(1, k)
		top := k
		if top > maxExp-1 {
			top = maxExp - 1 // the top bin absorbs overflow
		}
		for _, c := range []struct {
			x    float64
			want int
		}{
			{math.Nextafter(p, 0), k - 1},
			{p, top},
			{math.Nextafter(p, math.Inf(1)), top},
		} {
			if got := bin(c.x); got != c.want {
				t.Errorf("k=%d: Add(%v) landed in bin %d, want %d", k, c.x, got, c.want)
			}
		}
	}
}

// TestLogHistogramNonFinite: Add is total. A NaN is dropped, negatives
// count as zero observations, and +Inf saturates in the top bin — no
// index panic, and a Mean encoding/json accepts.
func TestLogHistogramNonFinite(t *testing.T) {
	h := NewLogHistogram(8)
	h.Add(math.NaN())
	if h.total != 0 {
		t.Fatalf("NaN was counted: total=%d", h.total)
	}
	h.Add(-3)
	h.Add(math.Inf(-1))
	if h.total != 2 || h.zero != 2 || h.sum != 0 {
		t.Errorf("negatives: total=%d zero=%d sum=%v, want 2 2 0", h.total, h.zero, h.sum)
	}
	h.Add(math.Inf(1))
	h.Add(math.MaxFloat64)
	h.Add(math.MaxFloat64)
	if h.bins[7] != 3 {
		t.Errorf("overflow: top bin = %d, want 3 (bins %v)", h.bins[7], h.bins)
	}
	if want := 3 * 256.0 / 5; h.Mean() != want {
		t.Errorf("mean = %v, want %v (overflow saturates at 2^maxExp)", h.Mean(), want)
	}
}
