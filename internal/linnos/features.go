// Package linnos reproduces LinnOS (Hao et al., OSDI '20) on the
// simulated flash array: a light neural network predicts, at submission
// time, whether a read will be fast or slow; predicted-slow reads are
// immediately re-issued to a replica instead of waiting out the
// primary's congestion. The package provides the feature extraction,
// the fast/slow classifier, a training-data collector, and the guarded
// I/O engine whose false-submit guardrail is the paper's Figure 2 case
// study.
package linnos

import (
	"guardrails/internal/kernel"
	"guardrails/internal/stats"
	"guardrails/internal/storage"
)

// NumFeatures is the model input width: the device queue depth plus the
// four most recent I/O latencies (LinnOS's feature set, scaled down).
const NumFeatures = 5

// latScale converts a latency to a feature in roughly [0, 4]:
// milliseconds clipped at 4ms.
func latFeature(l kernel.Time) float64 {
	return stats.Clamp(float64(l)/float64(kernel.Millisecond), 0, 4)
}

// fillFeatures writes the model input for a read about to be submitted
// to device d at time now into f.
//
//guardrails:hotpath
func fillFeatures(f *[NumFeatures]float64, d *storage.Device, now kernel.Time) {
	f[0] = stats.Clamp(float64(d.QueueDepth(now))/16.0, 0, 4)
	for i, l := range d.RecentLatencies() {
		f[1+i] = latFeature(l)
	}
}

// Features extracts the model input for a read about to be submitted to
// device d at time now. The caller owns the returned slice: CollectSamples
// keeps it in a Sample. The engine, whose predictor only looks at the
// vector, fills its own buffer instead of allocating per prediction.
func Features(d *storage.Device, now kernel.Time) []float64 {
	f := new([NumFeatures]float64)
	fillFeatures(f, d, now)
	return f[:]
}
