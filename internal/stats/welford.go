package stats

// Welford accumulates the count and mean of a stream with the mean
// update of Welford's online algorithm (no running sum to lose
// precision in). The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }
