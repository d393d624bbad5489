package nn

import (
	"math"
	"math/rand"
	"testing"
)

func trainedClassifier(t *testing.T) *Network {
	t.Helper()
	// Learn "x0 + x1 > 1" as a 2-class problem.
	rng := rand.New(rand.NewSource(21))
	var inputs, targets [][]float64
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64() * 2, rng.Float64() * 2}
		cls := []float64{1, 0}
		if x[0]+x[1] > 1 {
			cls = []float64{0, 1}
		}
		inputs = append(inputs, x)
		targets = append(targets, cls)
	}
	n := New(Config{Layers: []int{2, 16, 2}, Hidden: ReLU, Output: Linear, Loss: MSE, Seed: 22})
	if _, err := n.Train(inputs, targets, TrainOpts{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 100, ShuffleSeed: 3}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestQuantizedMatchesFloatDecisions(t *testing.T) {
	n := trainedClassifier(t)
	q, err := n.Quantize(10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	agree := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		in := []float64{rng.Float64() * 2, rng.Float64() * 2}
		if Argmax(n.Forward(in)) == Argmax(q.Forward(in)) {
			agree++
		}
	}
	if frac := float64(agree) / trials; frac < 0.97 {
		t.Errorf("quantized agreement = %v, want >= 0.97", frac)
	}
}

func TestQuantizedOutputsClose(t *testing.T) {
	n := New(Config{Layers: []int{3, 8, 2}, Hidden: ReLU, Output: Linear, Seed: 31})
	q, err := n.Quantize(12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 200; i++ {
		in := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		fo := n.Forward(in)
		qo := q.Forward(in)
		for j := range fo {
			if math.Abs(fo[j]-qo[j]) > 0.05*(1+math.Abs(fo[j])) {
				t.Fatalf("outputs diverge: float %v quant %v (input %v)", fo, qo, in)
			}
		}
	}
}

func TestQuantizeValidation(t *testing.T) {
	n := New(Config{Layers: []int{2, 2}, Hidden: ReLU, Output: Linear, Seed: 1})
	for _, bits := range []uint{0, 15} {
		if _, err := n.Quantize(bits); err == nil {
			t.Errorf("fracBits=%d should error", bits)
		}
	}
	tanh := New(Config{Layers: []int{2, 2, 1}, Hidden: Tanh, Output: Linear, Seed: 1})
	if _, err := tanh.Quantize(10); err == nil {
		t.Error("tanh should be rejected in quantized mode")
	}
}

func TestQuantizedSigmoidMonotone(t *testing.T) {
	// hard sigmoid must be monotone nondecreasing and clamp to [0,1].
	const frac = 10
	one := int64(1) << frac
	prev := int64(-1)
	for x := -8 * one; x <= 8*one; x += one / 4 {
		y := hardSigmoid(x, frac)
		if y < 0 || y > one {
			t.Fatalf("hardSigmoid(%d) = %d out of range", x, y)
		}
		if y < prev {
			t.Fatalf("hardSigmoid not monotone at %d", x)
		}
		prev = y
	}
	if hardSigmoid(0, frac) != one/2 {
		t.Error("hardSigmoid(0) should be 0.5")
	}
}

func TestQuantizedForwardPanicsOnBadInput(t *testing.T) {
	n := New(Config{Layers: []int{2, 1}, Hidden: ReLU, Output: Linear, Seed: 1})
	q, err := n.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	if q.inSize != 2 || len(q.out) != 1 {
		t.Error("quantized sizes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad input size should panic")
		}
	}()
	q.Forward([]float64{1})
}
