package trace

import (
	"math"
	"testing"

	"guardrails/internal/kernel"
)

func TestSplitIndependence(t *testing.T) {
	a := Split(1, "io")
	b := Split(1, "net")
	c := Split(2, "io")
	if a == b || a == c {
		t.Errorf("seeds collide: %d %d %d", a, b, c)
	}
	if Split(1, "io") != a {
		t.Error("Split is not deterministic")
	}
	if a < 0 {
		t.Error("seed should be non-negative")
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRand(3)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += Exponential(rng, 10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("exponential mean = %v, want ~10", mean)
	}
}

func TestParetoBoundsAndTail(t *testing.T) {
	rng := NewRand(4)
	count := 0
	for i := 0; i < 10000; i++ {
		v := Pareto(rng, 2, 1.5)
		if v < 2 {
			t.Fatalf("Pareto below xmin: %v", v)
		}
		if v > 20 {
			count++
		}
	}
	// P(X > 20) = (2/20)^1.5 ≈ 0.0316.
	frac := float64(count) / 10000
	if frac < 0.02 || frac > 0.05 {
		t.Errorf("tail fraction = %v, want ~0.032", frac)
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := NewRand(5)
	for i := 0; i < 1000; i++ {
		if LogNormal(rng, 0, 1) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	p := NewPoisson(1, 1000, 0) // 1000/s => mean gap 1ms
	prev := kernel.Time(0)
	var gaps float64
	const n = 20000
	for i := 0; i < n; i++ {
		next := p.Next()
		if next <= prev {
			t.Fatal("arrivals must be strictly increasing")
		}
		gaps += float64(next - prev)
		prev = next
	}
	meanGap := gaps / n
	want := float64(kernel.Millisecond)
	if math.Abs(meanGap-want)/want > 0.05 {
		t.Errorf("mean gap = %v, want ~%v", meanGap, want)
	}
}

func TestPoissonStartOffset(t *testing.T) {
	p := NewPoisson(1, 100, 5*kernel.Second)
	if first := p.Next(); first <= 5*kernel.Second {
		t.Errorf("first arrival %v should be after start", first)
	}
}

func TestPoissonValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate should panic")
		}
	}()
	NewPoisson(1, 0, 0)
}

func TestZipfKeysSkewAndDeterminism(t *testing.T) {
	g := NewZipfKeys(11, 1000, 1.2, false)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		k := g.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of universe", k)
		}
		counts[k]++
	}
	// Key 0 must dominate an unskewed share.
	if counts[0] < 10000 {
		t.Errorf("hot key count = %d, want heavy skew", counts[0])
	}
	// Determinism.
	g2 := NewZipfKeys(11, 1000, 1.2, false)
	g3 := NewZipfKeys(11, 1000, 1.2, false)
	for i := 0; i < 100; i++ {
		if g2.Next() != g3.Next() {
			t.Fatal("same seed diverged")
		}
	}
	if g.Universe() != 1000 {
		t.Error("universe wrong")
	}
}

func TestZipfKeysScramble(t *testing.T) {
	g := NewZipfKeys(11, 1000, 1.5, true)
	counts := make(map[uint64]int)
	for i := 0; i < 50000; i++ {
		counts[g.Next()]++
	}
	// The most popular key is likely NOT key 0 after scrambling.
	max, argmax := 0, uint64(0)
	for k, c := range counts {
		if c > max {
			max, argmax = c, k
		}
	}
	if max < 5000 {
		t.Errorf("scrambled hot key count = %d", max)
	}
	_ = argmax // its location is arbitrary; only skew matters
}

func TestUniformKeysCoverage(t *testing.T) {
	g := NewUniformKeys(13, 10)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		k := g.Next()
		if k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Errorf("coverage = %d/10", len(seen))
	}
}

func TestKeyGenValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zipf-empty", func() { NewZipfKeys(1, 0, 1.5, false) })
	mustPanic("zipf-skew", func() { NewZipfKeys(1, 10, 1.0, false) })
	mustPanic("uniform-empty", func() { NewUniformKeys(1, 0) })
}
