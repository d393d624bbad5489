package stats

import "testing"

func TestQuantileExact(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(s, c.p); got != c.want {
			t.Errorf("Quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty slice should give 0")
	}
	if Quantile([]float64{42}, 0.99) != 42 {
		t.Error("singleton should give its value")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := Quantile(s, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Errorf("interpolated = %v, want 3", got)
	}
}
