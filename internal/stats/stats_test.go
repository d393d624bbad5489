package stats

import "testing"

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal alloc: %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("monopoly alloc: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty alloc: %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero alloc: %v", got)
	}
	// Fairness decreases with skew.
	if JainIndex([]float64{4, 1, 1}) >= JainIndex([]float64{2, 2, 2}) {
		t.Error("skewed allocation should be less fair")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}
