package stats

// Window is a fixed-capacity sliding window over a float64 stream backed
// by a ring buffer, maintaining running sum for O(1) mean queries.
type Window struct {
	buf  []float64
	head int // index of oldest element
	size int
	sum  float64
}

// NewWindow returns a sliding window holding the most recent n values.
func NewWindow(n int) *Window {
	if n <= 0 {
		panic("stats: window capacity must be positive")
	}
	return &Window{buf: make([]float64, n)}
}

// Add appends a value, evicting the oldest when full. It returns the
// evicted value and whether an eviction occurred.
func (w *Window) Add(x float64) (evicted float64, wasFull bool) {
	if w.size == len(w.buf) {
		evicted = w.buf[w.head]
		wasFull = true
		w.sum -= evicted
		w.buf[w.head] = x
		w.head = (w.head + 1) % len(w.buf)
	} else {
		w.buf[(w.head+w.size)%len(w.buf)] = x
		w.size++
	}
	w.sum += x
	return evicted, wasFull
}

// Len returns the number of values currently held.
func (w *Window) Len() int { return w.size }

// Sum returns the sum of held values.
func (w *Window) Sum() float64 { return w.sum }

// Mean returns the mean of held values, or 0 when empty.
func (w *Window) Mean() float64 {
	if w.size == 0 {
		return 0
	}
	return w.sum / float64(w.size)
}

// Values copies the window contents, oldest first.
func (w *Window) Values() []float64 {
	out := make([]float64, w.size)
	for i := 0; i < w.size; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}

// Reset clears the window.
func (w *Window) Reset() {
	w.head, w.size, w.sum = 0, 0, 0
}

// RateWindow counts event outcomes (hit/miss style) over a sliding window
// of the most recent n events and reports the success rate. It is used
// for properties like the LinnOS false-submit rate.
type RateWindow struct {
	bits  []bool
	head  int
	size  int
	count int // number of true bits
}

// NewRateWindow returns a window over the most recent n boolean outcomes.
func NewRateWindow(n int) *RateWindow {
	if n <= 0 {
		panic("stats: rate window capacity must be positive")
	}
	return &RateWindow{bits: make([]bool, n)}
}

// Add records one outcome.
func (r *RateWindow) Add(v bool) {
	if r.size == len(r.bits) {
		if r.bits[r.head] {
			r.count--
		}
		r.bits[r.head] = v
		r.head = (r.head + 1) % len(r.bits)
	} else {
		r.bits[(r.head+r.size)%len(r.bits)] = v
		r.size++
	}
	if v {
		r.count++
	}
}

// Rate returns the fraction of true outcomes in the window, or 0 when
// empty.
func (r *RateWindow) Rate() float64 {
	if r.size == 0 {
		return 0
	}
	return float64(r.count) / float64(r.size)
}

// Len returns the number of outcomes held.
func (r *RateWindow) Len() int { return r.size }

// Reset clears the window.
func (r *RateWindow) Reset() {
	r.head, r.size, r.count = 0, 0, 0
	for i := range r.bits {
		r.bits[i] = false
	}
}
