package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		in   float64
		want float64
	}{
		{Linear, -2, -2},
		{ReLU, -2, 0},
		{ReLU, 3, 3},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.act.apply(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.act, c.in, got, c.want)
		}
	}
	if Linear.String() != "linear" || ReLU.String() != "relu" ||
		Sigmoid.String() != "sigmoid" || Tanh.String() != "tanh" {
		t.Error("activation names wrong")
	}
}

func TestNewDeterministic(t *testing.T) {
	cfg := Config{Layers: []int{4, 8, 2}, Hidden: ReLU, Output: Sigmoid, Seed: 42}
	a := New(cfg)
	b := New(cfg)
	in := []float64{0.1, -0.2, 0.3, 0.4}
	oa := a.Forward(in)
	ob := b.Forward(in)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed gave different networks")
		}
	}
	c := New(Config{Layers: []int{4, 8, 2}, Hidden: ReLU, Output: Sigmoid, Seed: 43})
	oc := c.Forward(in)
	same := true
	for i := range oa {
		if oa[i] != oc[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical networks")
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	n := New(Config{Layers: []int{3, 2}, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("wrong input size should panic")
		}
	}()
	n.Forward([]float64{1, 2})
}

func TestConfigValidation(t *testing.T) {
	for _, layers := range [][]int{{3}, {}, {3, 0, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("layers %v should panic", layers)
				}
			}()
			New(Config{Layers: layers})
		}()
	}
}

func TestSigmoidOutputInRange(t *testing.T) {
	n := New(Config{Layers: []int{2, 4, 1}, Hidden: ReLU, Output: Sigmoid, Seed: 5})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		out := n.Forward([]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10})
		if out[0] < 0 || out[0] > 1 {
			t.Fatalf("sigmoid output out of range: %v", out[0])
		}
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := [][]float64{{0}, {1}, {1}, {0}}
	n := New(Config{Layers: []int{2, 8, 1}, Hidden: Tanh, Output: Sigmoid, Loss: BCE, Seed: 3})
	loss, err := n.Train(inputs, targets, TrainOpts{
		LearningRate: 0.5, Momentum: 0.9, BatchSize: 4, Epochs: 2000, ShuffleSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.1 {
		t.Fatalf("XOR final loss = %v, want < 0.1", loss)
	}
	for i, in := range inputs {
		out := n.Forward(in)[0]
		pred := 0.0
		if out > 0.5 {
			pred = 1
		}
		if pred != targets[i][0] {
			t.Errorf("XOR(%v) = %v (raw %v), want %v", in, pred, out, targets[i][0])
		}
	}
}

func TestTrainReducesLossLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var inputs, targets [][]float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()*2 - 1
		y := rng.Float64()*2 - 1
		inputs = append(inputs, []float64{x, y})
		targets = append(targets, []float64{2*x - 3*y + 0.5})
	}
	n := New(Config{Layers: []int{2, 1}, Hidden: Linear, Output: Linear, Loss: MSE, Seed: 9})
	first, err := n.Train(inputs, targets, TrainOpts{LearningRate: 0.1, BatchSize: 16, Epochs: 1, ShuffleSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	last, err := n.Train(inputs, targets, TrainOpts{LearningRate: 0.1, BatchSize: 16, Epochs: 200, ShuffleSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
	if last > 1e-3 {
		t.Errorf("linear fit loss = %v, want ~0", last)
	}
}

func TestTrainValidation(t *testing.T) {
	n := New(Config{Layers: []int{2, 1}, Seed: 1})
	if _, err := n.Train([][]float64{{1, 2}}, nil, TrainOpts{}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := n.Train(nil, nil, TrainOpts{}); err == nil {
		t.Error("empty set should error")
	}
	if _, err := n.Train([][]float64{{1}}, [][]float64{{1}}, TrainOpts{}); err == nil {
		t.Error("wrong input width should error")
	}
	if _, err := n.Train([][]float64{{1, 2}}, [][]float64{{1, 2}}, TrainOpts{}); err == nil {
		t.Error("wrong target width should error")
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{0.1, 0.9, 0.5}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]float64{0.5, 0.5}) != 0 {
		t.Error("argmax tie should pick lower index")
	}
	if Argmax([]float64{3}) != 0 {
		t.Error("singleton argmax")
	}
}
