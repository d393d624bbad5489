// Package stats provides the statistical substrate used by guardrail
// properties, the simulators and telemetry: a running mean, exact
// quantiles of a sorted sample, fixed-bin and log2 histograms, sliding
// windows, the PSI distribution-shift index and Jain's fairness index.
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

// JainIndex computes Jain's fairness index over per-entity allocations:
// (sum x)^2 / (n * sum x^2). It is 1 for perfect fairness and 1/n when a
// single entity receives everything. Used by P6 fairness properties.
func JainIndex(alloc []float64) float64 {
	if len(alloc) == 0 {
		return 1
	}
	var s, s2 float64
	for _, x := range alloc {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 1
	}
	return s * s / (float64(len(alloc)) * s2)
}
