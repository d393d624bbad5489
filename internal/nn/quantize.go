package nn

import (
	"fmt"
	"math"
)

// Quantized is a fixed-point (int16 weights, int32 accumulators) copy of
// a network for cheap in-kernel-style inference, mirroring LinnOS's
// integer-quantized deployment. Only ReLU hidden activations and
// Linear/ReLU/Sigmoid outputs are supported; sigmoid is approximated by a
// piecewise-linear "hard sigmoid", which preserves the argmax/threshold
// decisions the learned policies make.
//
// Like Network, a Quantized owns its inference scratch and is not safe
// for concurrent use.
type Quantized struct {
	layers   []qlayer
	inSize   int
	fracBits uint

	// Scratch reused by every Forward: the quantized input and the
	// dequantized output (each layer keeps its own activations).
	qin []int32
	out []float64
}

type qlayer struct {
	in, out int
	w       []int16
	b       []int32 // pre-shifted to 2*fracBits scale
	act     Activation
	y       []int32 // activations from the last Forward
}

// Quantize converts the network to fixed point with the given number of
// fractional bits (1..14). Weights are clamped to the int16 range.
func (n *Network) Quantize(fracBits uint) (*Quantized, error) {
	if fracBits < 1 || fracBits > 14 {
		return nil, fmt.Errorf("nn: fracBits %d out of range [1,14]", fracBits)
	}
	for i, l := range n.layers {
		switch l.act {
		case ReLU, Linear, Sigmoid:
		default:
			return nil, fmt.Errorf("nn: layer %d activation %v not supported in quantized mode", i, l.act)
		}
	}
	scale := float64(int64(1) << fracBits)
	q := &Quantized{inSize: n.InputSize(), fracBits: fracBits,
		qin: make([]int32, n.InputSize()), out: make([]float64, n.OutputSize())}
	for _, l := range n.layers {
		ql := qlayer{in: l.in, out: l.out, act: l.act,
			w: make([]int16, len(l.w)), b: make([]int32, len(l.b)), y: make([]int32, l.out)}
		for j, w := range l.w {
			v := math.Round(w * scale)
			if v > math.MaxInt16 {
				v = math.MaxInt16
			}
			if v < math.MinInt16 {
				v = math.MinInt16
			}
			ql.w[j] = int16(v)
		}
		for j, b := range l.b {
			// Biases add to accumulators at input*weight scale = 2^(2*frac).
			ql.b[j] = int32(math.Round(b * scale * scale))
		}
		q.layers = append(q.layers, ql)
	}
	return q, nil
}

// Forward runs fixed-point inference. Inputs are quantized on entry;
// outputs are dequantized to float64 for the caller. As with
// Network.Forward, the result is a view of owned scratch, valid until
// the next Forward.
//
//guardrails:hotpath
func (q *Quantized) Forward(in []float64) []float64 {
	if len(in) != q.inSize {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(in), q.inSize)) //guardrails:coldpath caller bug
	}
	scale := int64(1) << q.fracBits
	cur := q.qin
	for i, x := range in {
		v := math.Round(x * float64(scale))
		if v > math.MaxInt32 {
			v = math.MaxInt32
		}
		if v < math.MinInt32 {
			v = math.MinInt32
		}
		cur[i] = int32(v)
	}
	for li := range q.layers {
		l := &q.layers[li]
		next := l.y
		for o := 0; o < l.out; o++ {
			acc := int64(l.b[o])
			row := l.w[o*l.in : (o+1)*l.in]
			for i, x := range cur {
				acc += int64(row[i]) * int64(x)
			}
			// Rescale from 2^(2*frac) back to 2^frac.
			acc >>= q.fracBits
			switch l.act {
			case ReLU:
				if acc < 0 {
					acc = 0
				}
			case Sigmoid:
				acc = hardSigmoid(acc, q.fracBits)
			}
			if acc > math.MaxInt32 {
				acc = math.MaxInt32
			}
			if acc < math.MinInt32 {
				acc = math.MinInt32
			}
			next[o] = int32(acc)
		}
		cur = next
	}
	out := q.out
	for i, v := range cur {
		out[i] = float64(v) / float64(scale)
	}
	return out
}

// hardSigmoid computes clamp(0.25*x + 0.5, 0, 1) in fixed point, a
// standard piecewise-linear sigmoid approximation.
func hardSigmoid(x int64, fracBits uint) int64 {
	one := int64(1) << fracBits
	v := x/4 + one/2
	if v < 0 {
		return 0
	}
	if v > one {
		return one
	}
	return v
}

// Argmax returns the index of the largest output, breaking ties toward
// the lower index. Classification policies use this rather than the raw
// outputs.
func Argmax(out []float64) int {
	best := 0
	for i := 1; i < len(out); i++ {
		if out[i] > out[best] {
			best = i
		}
	}
	return best
}
