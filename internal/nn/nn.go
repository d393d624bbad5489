// Package nn is the learned-policy substrate: a small, dependency-free
// multilayer perceptron with SGD+momentum training, suitable for the
// "light neural network" policies the paper's case studies use (LinnOS
// I/O latency classification, learned cache eviction, learned schedulers).
//
// The package also provides integer-quantized inference (Quantize), the
// trick LinnOS uses to run models cheaply inside the kernel, so that
// decision-overhead properties (P5) can compare float and fixed-point
// inference costs.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Sigmoid
	Tanh
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// derivFromOutput returns dActivation/dx expressed in terms of the
// activation output y (possible for all supported activations).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Loss selects the training objective.
type Loss int

// Supported losses. BCE expects Sigmoid outputs in (0,1) and targets in
// {0,1}; its gradient composed with sigmoid simplifies to (y - t).
const (
	MSE Loss = iota
	BCE
)

// Config describes a network: layer widths (input first, output last),
// activations, and an initialization seed.
type Config struct {
	// Layers holds the width of every layer including input and output,
	// e.g. {31, 256, 2} for a LinnOS-style classifier.
	Layers []int
	// Hidden is the activation for all hidden layers.
	Hidden Activation
	// Output is the activation for the output layer.
	Output Activation
	// Loss is the training objective.
	Loss Loss
	// Seed initializes weights deterministically.
	Seed int64
}

type layer struct {
	in, out int
	w       []float64 // out x in, row-major
	b       []float64 // out
	act     Activation

	// momentum buffers
	vw []float64
	vb []float64

	// y holds this layer's activations from the last forward pass:
	// scratch the network owns, so inference allocates nothing.
	y []float64
}

// Network is a feedforward MLP. It is not safe for concurrent use, not
// even a frozen network for inference: Forward writes the per-layer
// scratch the network owns, so two goroutines sharing one Network race.
type Network struct {
	cfg    Config
	layers []layer
}

// New constructs a network with Xavier/Glorot-uniform initialization.
func New(cfg Config) *Network {
	if len(cfg.Layers) < 2 {
		panic("nn: need at least input and output layers")
	}
	for _, n := range cfg.Layers {
		if n <= 0 {
			panic("nn: layer widths must be positive")
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	for i := 0; i+1 < len(cfg.Layers); i++ {
		in, out := cfg.Layers[i], cfg.Layers[i+1]
		act := cfg.Hidden
		if i+2 == len(cfg.Layers) {
			act = cfg.Output
		}
		l := layer{
			in: in, out: out, act: act,
			w:  make([]float64, in*out),
			b:  make([]float64, out),
			vw: make([]float64, in*out),
			vb: make([]float64, out),
			y:  make([]float64, out),
		}
		limit := math.Sqrt(6.0 / float64(in+out))
		for j := range l.w {
			l.w[j] = (rng.Float64()*2 - 1) * limit
		}
		n.layers = append(n.layers, l)
	}
	return n
}

// InputSize returns the expected input vector length.
func (n *Network) InputSize() int { return n.cfg.Layers[0] }

// OutputSize returns the output vector length.
func (n *Network) OutputSize() int { return n.cfg.Layers[len(n.cfg.Layers)-1] }

// Forward runs inference. The result is a view of scratch the network
// owns, valid until the next Forward or Train on this network: read it
// (or copy it) before then.
//
//guardrails:hotpath
func (n *Network) Forward(in []float64) []float64 {
	if len(in) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(in), n.InputSize())) //guardrails:coldpath caller bug
	}
	return n.forward(in)
}

// forward runs every layer, leaving layer li's activations in
// n.layers[li].y (backprop reads them all), and returns the last.
//
//guardrails:hotpath
func (n *Network) forward(in []float64) []float64 {
	cur := in
	for li := range n.layers {
		l := &n.layers[li]
		l.dense(cur)
		cur = l.y
	}
	return cur
}

// dense is the one dense-layer loop, shared by inference and training:
// y[o] = act(b[o] + w[o][0]*x[0] + w[o][1]*x[1] + ...). The rule that
// keeps every result bit-identical to the naive loop
// (TestKernelBitIdenticalToReference) is "same order, four rows at a
// time": each sum starts from its bias and adds its products in index
// order, and the only liberty taken is that four rows, which share no
// data but x, advance together on four independent accumulators. No
// sum is split, reassociated or fused.
//
//guardrails:hotpath
func (l *layer) dense(x []float64) {
	w, b, y := l.w, l.b, l.y[:len(l.b)]
	n := len(x)
	o := 0
	for ; o+4 <= len(b); o += 4 {
		// Re-slicing each row to len(x) lets the compiler drop the
		// bounds check from the inner loop.
		r0 := w[o*n : (o+1)*n][:len(x)]
		r1 := w[(o+1)*n : (o+2)*n][:len(x)]
		r2 := w[(o+2)*n : (o+3)*n][:len(x)]
		r3 := w[(o+3)*n : (o+4)*n][:len(x)]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < len(b); o++ {
		r := w[o*n : (o+1)*n][:len(x)]
		s := b[o]
		for i, xi := range x {
			s += r[i] * xi
		}
		y[o] = s
	}
	switch l.act {
	case ReLU:
		for o, s := range y {
			if s < 0 {
				y[o] = 0
			}
		}
	case Sigmoid:
		for o, s := range y {
			y[o] = 1 / (1 + math.Exp(-s))
		}
	case Tanh:
		for o, s := range y {
			y[o] = math.Tanh(s)
		}
	}
}

// TrainOpts configures SGD.
type TrainOpts struct {
	LearningRate float64
	Momentum     float64
	BatchSize    int
	Epochs       int
	// Shuffle seeds minibatch shuffling; 0 disables shuffling.
	ShuffleSeed int64
}

// Train runs minibatch SGD over the dataset and returns the mean loss of
// the final epoch. inputs[i] pairs with targets[i].
func (n *Network) Train(inputs, targets [][]float64, opts TrainOpts) (float64, error) {
	if len(inputs) != len(targets) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(inputs), len(targets))
	}
	if len(inputs) == 0 {
		return 0, errors.New("nn: empty training set")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	// The set is packed into one row per sample, input then target: the
	// shuffled walk below then touches one place per sample instead of
	// two slice headers and two arrays scattered over the heap.
	nIn, nOut := n.InputSize(), n.OutputSize()
	width := nIn + nOut
	packed := make([]float64, len(inputs)*width)
	for i := range inputs {
		if len(inputs[i]) != nIn {
			return 0, fmt.Errorf("nn: input %d has size %d, want %d", i, len(inputs[i]), nIn)
		}
		// backprop's zero-delta skip needs finite activations; checking
		// the inputs here, once, spares it a test per sample.
		if !finite(inputs[i]) {
			return 0, fmt.Errorf("nn: input %d has a non-finite feature", i)
		}
		if len(targets[i]) != nOut {
			return 0, fmt.Errorf("nn: target %d has size %d, want %d", i, len(targets[i]), nOut)
		}
		row := packed[i*width : (i+1)*width]
		copy(row, inputs[i])
		copy(row[nIn:], targets[i])
	}

	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	var rng *rand.Rand
	if opts.ShuffleSeed != 0 {
		rng = rand.New(rand.NewSource(opts.ShuffleSeed))
	}

	// Scratch buffers reused across samples.
	deltas := make([][]float64, len(n.layers))
	for i := range n.layers {
		deltas[i] = make([]float64, n.layers[i].out)
	}
	gw := make([][]float64, len(n.layers))
	gb := make([][]float64, len(n.layers))
	for i := range n.layers {
		gw[i] = make([]float64, len(n.layers[i].w))
		gb[i] = make([]float64, len(n.layers[i].b))
	}

	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		if rng != nil {
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		var epochLoss float64
		for start := 0; start < len(idx); start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			for i := range n.layers {
				zero(gw[i])
				zero(gb[i])
			}
			for _, s := range batch {
				row := packed[s*width : (s+1)*width]
				epochLoss += n.backprop(row[:nIn], row[nIn:], deltas, gw, gb)
			}
			scale := opts.LearningRate / float64(len(batch))
			for li := range n.layers {
				l := &n.layers[li]
				for j := range l.w {
					l.vw[j] = opts.Momentum*l.vw[j] - scale*gw[li][j]
					l.w[j] += l.vw[j]
				}
				for j := range l.b {
					l.vb[j] = opts.Momentum*l.vb[j] - scale*gb[li][j]
					l.b[j] += l.vb[j]
				}
			}
		}
		lastLoss = epochLoss / float64(len(idx))
	}
	return lastLoss, nil
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// finite reports whether every element is neither NaN nor ±Inf.
func finite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// backprop accumulates gradients for one sample and returns its loss.
// Every accumulator receives the naive loops' terms in their order.
func (n *Network) backprop(in, target []float64, deltas, gw, gb [][]float64) float64 {
	out := n.forward(in)
	last := len(n.layers) - 1

	var loss float64
	outLayer := &n.layers[last]
	for o, y := range out {
		t := target[o]
		switch n.cfg.Loss {
		case BCE:
			const eps = 1e-12
			loss += -(t*math.Log(y+eps) + (1-t)*math.Log(1-y+eps))
			// Assuming sigmoid output, dL/dz = y - t.
			deltas[last][o] = y - t
		default:
			d := y - t
			loss += 0.5 * d * d
			deltas[last][o] = d * outLayer.act.derivFromOutput(y)
		}
	}

	for li := last; li >= 0; li-- {
		l := &n.layers[li]
		delta := deltas[li][:l.out]
		prev := in // Train checked it finite
		prevFinite := true
		if li > 0 {
			prev = n.layers[li-1].y
			prevFinite = finite(prev)
		}
		g := gw[li]
		for o, d := range delta {
			gb[li][o] += d
			// A unit whose delta is exactly zero (mostly a dead ReLU)
			// adds ±0·x to each gradient in its row. An accumulator
			// zeroed to +0 can never become -0, so for finite x that is
			// the identity and the row can be skipped; 0·Inf is NaN,
			// hence prevFinite.
			if d == 0 && prevFinite {
				continue
			}
			row := g[o*l.in : (o+1)*l.in][:len(prev)]
			for i, x := range prev {
				row[i] += d * x
			}
		}
		if li == 0 {
			break
		}
		below := deltas[li-1][:l.in]
		zero(below)
		for o, d := range delta {
			row := l.w[o*l.in : (o+1)*l.in][:len(below)]
			for i := range below {
				below[i] += d * row[i]
			}
		}
		act := n.layers[li-1].act
		for i, y := range prev[:len(below)] {
			below[i] *= act.derivFromOutput(y)
		}
	}
	return loss
}
