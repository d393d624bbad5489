package linnos

import (
	"fmt"

	"guardrails/internal/kernel"
	"guardrails/internal/storage"
)

// CollectSamples drives n operations from the workload against the
// array's primary replica (writes are mirrored array-wide) and records a
// labelled Sample for every read: the features visible at submission
// and whether the read exceeded slowThreshold. This is the offline
// trace-collection step of the LinnOS training pipeline; run it against
// scratch devices, not the experiment's live array.
func CollectSamples(arr *storage.Array, wl OpGen, n int, slowThreshold kernel.Time) []Sample {
	var out []Sample
	primary := arr.Replica(0)
	for i := 0; i < n; i++ {
		op := wl.Next()
		if op.Write {
			arr.Write(op.At, op.LBA)
			continue
		}
		f := Features(primary, op.At)
		lat := primary.Submit(op.At, op.LBA, false)
		out = append(out, Sample{Features: f, Slow: lat > slowThreshold})
	}
	return out
}

// TrainedClassifier collects samples and fits a classifier in one step,
// validating that the training set contains both classes and that the
// fitted model achieves at least minAccuracy on its own training data
// (a smoke check that training converged, mirroring LinnOS's reported
// high training accuracy).
func TrainedClassifier(arr *storage.Array, wl OpGen, n int, slowThreshold kernel.Time, seed int64, minAccuracy float64) (*Classifier, []Sample, error) {
	samples := CollectSamples(arr, wl, n, slowThreshold)
	c := NewClassifier(seed)
	if _, err := c.Train(samples); err != nil {
		return nil, nil, err
	}
	acc := Accuracy(c, samples)
	if acc < minAccuracy {
		return nil, nil, fmt.Errorf("linnos: training accuracy %.3f below %.3f", acc, minAccuracy)
	}
	return c, samples, nil
}

// Accuracy returns the fraction of samples the classifier labels
// correctly.
func Accuracy(c *Classifier, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if c.PredictSlow(s.Features) == s.Slow {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
