package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The naive statement of what Network computes, one multiply-add at a
// time in index order. The blocked kernel in nn.go must match it bit for
// bit, so this is what makes the kernel safe to tune: split, reorder or
// fuse a sum there and TestKernelBitIdenticalToReference fails.

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// refNet holds per-layer weights, biases and momentum, row-major like
// Network's.
type refNet struct {
	cfg          Config
	w, b, vw, vb [][]float64
}

func refFrom(n *Network) *refNet {
	r := &refNet{cfg: n.cfg}
	for _, l := range n.layers {
		r.w = append(r.w, append([]float64(nil), l.w...))
		r.b = append(r.b, append([]float64(nil), l.b...))
		r.vw = append(r.vw, append([]float64(nil), l.vw...))
		r.vb = append(r.vb, append([]float64(nil), l.vb...))
	}
	return r
}

func (r *refNet) act(li int) Activation {
	if li == len(r.w)-1 {
		return r.cfg.Output
	}
	return r.cfg.Hidden
}

// forward returns every layer's activations, the input first.
func (r *refNet) forward(x []float64) [][]float64 {
	acts := [][]float64{x}
	for li := range r.w {
		y := make([]float64, len(r.b[li]))
		for o := range y {
			sum := r.b[li][o]
			for i, xi := range acts[li] {
				sum += r.w[li][o*len(acts[li])+i] * xi
			}
			y[o] = r.act(li).apply(sum)
		}
		acts = append(acts, y)
	}
	return acts
}

// backprop adds one sample's gradients to gw, gb and returns its loss.
func (r *refNet) backprop(x, target []float64, gw, gb [][]float64) float64 {
	acts := r.forward(x)
	last := len(r.w) - 1
	delta := make([]float64, len(target))
	var loss float64
	for o, y := range acts[last+1] {
		if r.cfg.Loss == BCE {
			loss += -(target[o]*math.Log(y+1e-12) + (1-target[o])*math.Log(1-y+1e-12))
			delta[o] = y - target[o]
		} else {
			loss += 0.5 * (y - target[o]) * (y - target[o])
			delta[o] = (y - target[o]) * r.act(last).derivFromOutput(y)
		}
	}
	for li := last; li >= 0; li-- {
		in := len(acts[li])
		below := make([]float64, in)
		for o, d := range delta {
			gb[li][o] += d
			for i, xi := range acts[li] {
				gw[li][o*in+i] += d * xi
				below[i] += d * r.w[li][o*in+i]
			}
		}
		if li > 0 {
			for i, y := range acts[li] {
				below[i] *= r.act(li - 1).derivFromOutput(y)
			}
		}
		delta = below
	}
	return loss
}

// train is minibatch SGD with momentum, shuffled as Network.Train does.
func (r *refNet) train(inputs, targets [][]float64, opts TrainOpts) float64 {
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(opts.ShuffleSeed))
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += opts.BatchSize {
			batch := idx[start:min(start+opts.BatchSize, len(idx))]
			gw, gb := make([][]float64, len(r.w)), make([][]float64, len(r.w))
			for li := range r.w {
				gw[li], gb[li] = make([]float64, len(r.w[li])), make([]float64, len(r.b[li]))
			}
			for _, s := range batch {
				epochLoss += r.backprop(inputs[s], targets[s], gw, gb)
			}
			scale := opts.LearningRate / float64(len(batch))
			for li := range r.w {
				for j := range r.w[li] {
					r.vw[li][j] = opts.Momentum*r.vw[li][j] - scale*gw[li][j]
					r.w[li][j] += r.vw[li][j]
				}
				for j := range r.b[li] {
					r.vb[li][j] = opts.Momentum*r.vb[li][j] - scale*gb[li][j]
					r.b[li][j] += r.vb[li][j]
				}
			}
		}
		lastLoss = epochLoss / float64(len(idx))
	}
	return lastLoss
}

// sameBits is math.Float64bits equality, except that any NaN equals any
// NaN: which operand's payload an add of two NaNs keeps is the
// compiler's choice, not an ordering of the sum.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func diffBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAgainstReference compares n with the naive reference started
// from n's weights: every output before training, the loss, every
// weight, bias and momentum value after it, and every output again.
func checkAgainstReference(t *testing.T, n *Network, inputs, targets [][]float64, opts TrainOpts) {
	t.Helper()
	ref := refFrom(n)
	what := fmt.Sprintf("hidden %v, output %v, loss %d: ", n.cfg.Hidden, n.cfg.Output, n.cfg.Loss)
	outputs := func(when string) {
		for s, x := range inputs {
			acts := ref.forward(x)
			diffBits(t, what+fmt.Sprintf("%s output of sample %d", when, s), n.Forward(x), acts[len(acts)-1])
		}
	}
	outputs("untrained")
	loss, err := n.Train(inputs, targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	diffBits(t, what+"loss", []float64{loss}, []float64{ref.train(inputs, targets, opts)})
	for li, l := range n.layers {
		diffBits(t, what+fmt.Sprintf("layer %d weights", li), l.w, ref.w[li])
		diffBits(t, what+fmt.Sprintf("layer %d biases", li), l.b, ref.b[li])
		diffBits(t, what+fmt.Sprintf("layer %d weight momentum", li), l.vw, ref.vw[li])
		diffBits(t, what+fmt.Sprintf("layer %d bias momentum", li), l.vb, ref.vb[li])
	}
	outputs("trained")
}

// kernelCase is a random training set for a network of the given shape:
// a fifth of the features are +0, a fifth -0.
func kernelCase(shape []int, seed int64) (inputs, targets [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < 23; s++ {
		x := make([]float64, shape[0])
		for i := range x {
			switch rng.Intn(5) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = rng.NormFloat64()
			}
		}
		y := make([]float64, shape[len(shape)-1])
		for o := range y {
			y[o] = float64(rng.Intn(2))
		}
		inputs, targets = append(inputs, x), append(targets, y)
	}
	return inputs, targets
}

func TestKernelBitIdenticalToReference(t *testing.T) {
	// Every width sits in every position (input, hidden, output) once,
	// so each loop meets block remainders 0 to 3 and a width below one
	// block; the last shape adds a hidden-to-hidden layer.
	widths := []int{1, 2, 3, 4, 5, 7, 16, 17}
	var shapes [][]int
	for i, w := range widths {
		shapes = append(shapes, []int{w, widths[(i+3)%len(widths)], widths[(i+6)%len(widths)]})
	}
	shapes = append(shapes, []int{5, 17, 7, 3})
	heads := []struct {
		out  Activation
		loss Loss
	}{{Linear, MSE}, {ReLU, MSE}, {Tanh, MSE}, {Sigmoid, MSE}, {Sigmoid, BCE}}
	opts := TrainOpts{LearningRate: 0.05, Momentum: 0.9, BatchSize: 5, Epochs: 3, ShuffleSeed: 9}

	for _, shape := range shapes {
		t.Run(strings.Trim(strings.ReplaceAll(fmt.Sprint(shape), " ", "x"), "[]"), func(t *testing.T) {
			seed := int64(0)
			for _, hidden := range []Activation{Linear, ReLU, Sigmoid, Tanh} {
				for _, head := range heads {
					seed++
					n := New(Config{Layers: shape, Hidden: hidden, Output: head.out, Loss: head.loss, Seed: seed})
					// Every other hidden unit starts far below zero: under
					// ReLU it is dead, its delta exactly zero.
					for li := 0; li+1 < len(n.layers); li++ {
						for o := 0; o < n.layers[li].out; o += 2 {
							n.layers[li].b[o] = -100
						}
					}
					inputs, targets := kernelCase(shape, seed)
					checkAgainstReference(t, n, inputs, targets, opts)
				}
			}
		})
	}
}

// TestZeroDeltaSkipNeedsFiniteActivations: skipping the gradient row of
// a zero-delta unit is exact only while the activations it multiplies
// are finite. Here the first layer overflows to +Inf, every unit of the
// second is dead (delta ±0) and the output stays finite, so the
// reference turns the second layer's weights into NaN (0·Inf); a skip
// that did not test the hidden activations would leave them untouched.
func TestZeroDeltaSkipNeedsFiniteActivations(t *testing.T) {
	n := New(Config{Layers: []int{2, 3, 3, 1}, Hidden: ReLU, Output: Linear, Seed: 1})
	n.layers[0].w[0] = math.MaxFloat64 // unit 0: MaxFloat64 * 2 = +Inf
	for j := range n.layers[1].w {
		n.layers[1].w[j] = -1 // -Inf into every unit: all dead
	}
	inputs := [][]float64{{2, 1}, {2, 0.5}}
	targets := [][]float64{{1}, {0}}
	checkAgainstReference(t, n, inputs, targets, TrainOpts{LearningRate: 0.01, Momentum: 0.9, BatchSize: 2, Epochs: 2, ShuffleSeed: 1})
	if w := n.layers[1].w[0]; w == w {
		t.Fatalf("layer 1 weight = %v; the case no longer reaches 0*Inf", w)
	}
}

// TestTrainRejectsNonFiniteInputs: the first layer's skip relies on
// Train refusing NaN and ±Inf features, before it touches a weight.
func TestTrainRejectsNonFiniteInputs(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		n := New(Config{Layers: []int{2, 3, 1}, Hidden: ReLU, Output: Linear, Seed: 1})
		before := refFrom(n)
		_, err := n.Train([][]float64{{1, 2}, {3, bad}}, [][]float64{{1}, {0}}, TrainOpts{})
		if err == nil {
			t.Fatalf("Train accepted a %v feature", bad)
		}
		for li, l := range n.layers {
			diffBits(t, "weights after rejected Train", l.w, before.w[li])
			diffBits(t, "biases after rejected Train", l.b, before.b[li])
		}
	}
}
