package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// sanitize maps arbitrary quick-generated floats into a bounded, finite
// range suitable for streaming estimators.
func sanitize(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e6))
	}
	return out
}

func TestQuickRateWindowBounds(t *testing.T) {
	f := func(bits []bool, capRaw uint8) bool {
		w := NewRateWindow(int(capRaw%32) + 1)
		for _, b := range bits {
			w.Add(b)
			if r := w.Rate(); r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
