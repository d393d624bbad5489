// Package stats provides the statistical substrate used by guardrail
// properties, the simulators and telemetry: a running mean, exact
// quantiles of a sorted sample, fixed-bin and log2 histograms, sliding
// windows and the PSI distribution-shift index.
//
// Everything in this package is allocation-free on the update path and
// safe to call from simulated-kernel hook sites. None of the types are
// internally synchronized; callers that share an estimator across
// goroutines must serialize access (the feature store does this).
package stats

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
