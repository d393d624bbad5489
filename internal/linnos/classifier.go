package linnos

import (
	"fmt"

	"guardrails/internal/nn"
)

// Sample is one labelled training example: the features observed at
// submission and whether the access turned out slow.
type Sample struct {
	Features []float64
	Slow     bool
}

// Classifier is the fast/slow binary classifier. It wraps a small MLP
// (and optionally its integer-quantized form for cheap inference, as
// LinnOS deploys in-kernel). Like the networks it wraps, it infers in
// scratch it owns and is not safe for concurrent use.
type Classifier struct {
	net  *nn.Network
	q    *nn.Quantized
	useQ bool
}

// NewClassifier returns an untrained classifier with LinnOS's shape
// scaled to our feature set: NumFeatures → 16 → 2 with ReLU hidden
// units and linear class scores.
func NewClassifier(seed int64) *Classifier {
	return &Classifier{
		net: nn.New(nn.Config{
			Layers: []int{NumFeatures, 16, 2},
			Hidden: nn.ReLU,
			Output: nn.Linear,
			Loss:   nn.MSE,
			Seed:   seed,
		}),
	}
}

// Train fits the classifier on samples, oversampling the minority class
// to balance the typically rare slow accesses. It returns the final
// training loss.
func (c *Classifier) Train(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("linnos: no training samples")
	}
	var slow, fast []Sample
	for _, s := range samples {
		if len(s.Features) != NumFeatures {
			return 0, fmt.Errorf("linnos: sample has %d features, want %d", len(s.Features), NumFeatures)
		}
		if s.Slow {
			slow = append(slow, s)
		} else {
			fast = append(fast, s)
		}
	}
	if len(slow) == 0 || len(fast) == 0 {
		return 0, fmt.Errorf("linnos: training set has only one class (%d slow, %d fast)", len(slow), len(fast))
	}
	// Oversample the minority class to parity.
	minority, majority := slow, fast
	if len(fast) < len(slow) {
		minority, majority = fast, slow
	}
	balanced := append([]Sample(nil), majority...)
	for i := 0; len(balanced) < 2*len(majority); i++ {
		balanced = append(balanced, minority[i%len(minority)])
	}

	inputs := make([][]float64, len(balanced))
	targets := make([][]float64, len(balanced))
	for i, s := range balanced {
		inputs[i] = s.Features
		if s.Slow {
			targets[i] = []float64{0, 1}
		} else {
			targets[i] = []float64{1, 0}
		}
	}
	loss, err := c.net.Train(inputs, targets, nn.TrainOpts{
		LearningRate: 0.02, Momentum: 0.9, BatchSize: 64, Epochs: 30, ShuffleSeed: 7,
	})
	if err != nil {
		return 0, err
	}
	// Refresh the quantized form if one was in use.
	if c.useQ {
		if err := c.EnableQuantized(); err != nil {
			return loss, err
		}
	}
	return loss, nil
}

// EnableQuantized switches inference to int16 fixed point (LinnOS's
// in-kernel deployment mode).
func (c *Classifier) EnableQuantized() error {
	q, err := c.net.Quantize(10)
	if err != nil {
		return err
	}
	c.q = q
	c.useQ = true
	return nil
}

// PredictSlow classifies a feature vector; true means the access is
// predicted slow (and should fail over to a replica).
//
//guardrails:hotpath
func (c *Classifier) PredictSlow(features []float64) bool {
	var out []float64
	if c.useQ {
		out = c.q.Forward(features)
	} else {
		out = c.net.Forward(features)
	}
	return nn.Argmax(out) == 1
}

// Network exposes the underlying model (e.g. for RETRAIN actions or
// persistence).
func (c *Classifier) Network() *nn.Network { return c.net }
