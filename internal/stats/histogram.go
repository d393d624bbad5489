package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi) with equal-width
// bins; out-of-range observations count toward the total and the mean
// only. It supports the normalization and distribution-distance (PSI)
// computations used by drift properties (P1).
type Histogram struct {
	lo, hi float64
	width  float64
	bins   []uint64
	total  uint64
	sum    float64
}

// NewHistogram returns a histogram over [lo, hi) with n equal bins.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if !(lo < hi) {
		panic("stats: histogram requires lo < hi")
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(n), bins: make([]uint64, n)}
}

// Add incorporates one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	if x < h.lo || x >= h.hi {
		return
	}
	i := int((x - h.lo) / h.width)
	if i >= len(h.bins) { // float rounding at the top edge
		i = len(h.bins) - 1
	}
	h.bins[i]++
}

// Mean returns the mean of all observations. An empty histogram has no
// mean: it returns NaN (not 0, which is a legitimate observed mean).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.total)
}

// Reset zeroes all counters.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.total, h.sum = 0, 0
}

// Probabilities returns the normalized in-range bin probabilities with
// Laplace smoothing eps applied to every bin (so distance computations
// never divide by zero). The result sums to 1.
func (h *Histogram) Probabilities(eps float64) []float64 {
	out := make([]float64, len(h.bins))
	total := eps * float64(len(h.bins))
	for _, c := range h.bins {
		total += float64(c)
	}
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, c := range h.bins {
		out[i] = (float64(c) + eps) / total
	}
	return out
}

// PSI computes the population stability index between h (expected) and o
// (actual). The histograms must have identical shape. PSI < 0.1 is
// conventionally "no shift", 0.1–0.25 "moderate", > 0.25 "major".
func (h *Histogram) PSI(o *Histogram) float64 {
	if len(h.bins) != len(o.bins) || h.lo != o.lo || h.hi != o.hi {
		panic("stats: PSI requires identically shaped histograms")
	}
	const eps = 0.5
	p := h.Probabilities(eps)
	q := o.Probabilities(eps)
	var psi float64
	for i := range p {
		psi += (q[i] - p[i]) * math.Log(q[i]/p[i])
	}
	return psi
}

// String renders a compact single-line summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist[%g,%g) n=%d mean=%.4g", h.lo, h.hi, h.total, h.Mean())
	return b.String()
}

// LogHistogram buckets positive values by log2 magnitude, suitable for
// latency distributions spanning several orders of magnitude.
type LogHistogram struct {
	bins  []uint64 // bins[i] counts values in [2^i, 2^(i+1))
	zero  uint64   // values < 1
	total uint64
	sum   float64
}

// NewLogHistogram returns a log2 histogram with capacity for values up to
// 2^maxExp.
func NewLogHistogram(maxExp int) *LogHistogram {
	if maxExp <= 0 || maxExp > 63 {
		panic("stats: log histogram maxExp must be in (0, 63]")
	}
	return &LogHistogram{bins: make([]uint64, maxExp)}
}

// Add incorporates one observation. It is total over float64 so that a
// caller holding a lock around it can never be left holding it: NaN is
// dropped, a negative value counts as 0, and anything at or above
// 2^maxExp (+Inf included) lands in the top bin and adds 2^maxExp to
// the sum, so Mean stays finite.
//
//guardrails:hotpath
func (h *LogHistogram) Add(x float64) {
	if x != x {
		return
	}
	h.total++
	if x < 1 {
		h.zero++
		if x > 0 {
			h.sum += x
		}
		return
	}
	// x >= 1: the sign bit is clear and the biased exponent is at least
	// 1023, so the unbiased exponent is floor(log2 x) exactly — the
	// half-open bucket, with none of math.Log2's rounding just below a
	// power of two.
	i := int(math.Float64bits(x)>>52) - 1023
	if i >= len(h.bins) {
		i = len(h.bins) - 1
		x = math.Ldexp(1, len(h.bins))
	}
	h.sum += x
	h.bins[i]++
}

// Buckets exposes the raw log2 buckets for cumulative-histogram
// export: the sub-1 count, a copy of the power-of-two bin counts
// (bins[i] counts values in [2^i, 2^(i+1)), the top bin absorbing
// overflow), the observation total, and the running sum.
func (h *LogHistogram) Buckets() (zero uint64, bins []uint64, total uint64, sum float64) {
	bins = make([]uint64, len(h.bins))
	copy(bins, h.bins)
	return h.zero, bins, h.total, h.sum
}

// Mean returns the mean of all observations, or NaN when empty
// (matching Histogram.Mean).
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.total)
}

// Quantile returns an approximate p-quantile using log-linear
// interpolation within the matched bucket, or NaN when empty.
func (h *LogHistogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	p = Clamp(p, 0, 1)
	target := p * float64(h.total)
	acc := float64(h.zero)
	if acc >= target && h.zero > 0 {
		return 0
	}
	for i, c := range h.bins {
		next := acc + float64(c)
		if next >= target && c > 0 {
			lo := math.Exp2(float64(i))
			hi := math.Exp2(float64(i + 1))
			frac := (target - acc) / float64(c)
			return lo + frac*(hi-lo)
		}
		acc = next
	}
	return math.Exp2(float64(len(h.bins)))
}

// Summary is the fixed quantile export shared by telemetry snapshots
// and benchmark emission: count, mean, and the conventional latency
// quantiles. An empty histogram summarizes to the zero Summary (not
// NaN) so summaries stay JSON-marshalable.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary exports the fixed quantile set.
func (h *LogHistogram) Summary() Summary {
	if h.total == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
