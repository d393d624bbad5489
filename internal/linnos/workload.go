package linnos

import (
	"math/rand"

	"guardrails/internal/kernel"
	"guardrails/internal/trace"
)

// Op is one storage operation of a workload.
type Op struct {
	At    kernel.Time
	LBA   uint64
	Write bool
}

// OpGen produces a time-ordered operation stream.
type OpGen interface {
	Next() Op
}

// MixedWorkload generates Poisson-arriving reads and writes over a key
// popularity distribution. The write fraction and the write-key
// generator can be changed mid-stream to create the distribution shifts
// guardrail experiments need.
type MixedWorkload struct {
	rng       *rand.Rand
	meanGap   float64
	writeFrac float64
	keys      trace.KeyGen
	writeKeys trace.KeyGen // nil = use keys
	now       kernel.Time
}

// NewMixedWorkload returns a workload with the given arrival rate
// (operations per simulated second), write fraction in [0, 1), and key
// generator.
func NewMixedWorkload(seed int64, ratePerSec, writeFrac float64, keys trace.KeyGen) *MixedWorkload {
	if ratePerSec <= 0 {
		panic("linnos: workload rate must be positive")
	}
	if writeFrac < 0 || writeFrac >= 1 {
		panic("linnos: write fraction must be in [0, 1)")
	}
	return &MixedWorkload{
		rng:       trace.NewRand(trace.Split(seed, "workload")),
		meanGap:   float64(kernel.Second) / ratePerSec,
		writeFrac: writeFrac,
		keys:      keys,
	}
}

// SetWriteFraction changes the write mix.
func (w *MixedWorkload) SetWriteFraction(f float64) {
	if f < 0 || f >= 1 {
		panic("linnos: write fraction must be in [0, 1)")
	}
	w.writeFrac = f
}

// SetWriteKeys gives writes their own key distribution (log-structured
// workloads write far more uniformly than they read). nil reverts to
// the read distribution.
func (w *MixedWorkload) SetWriteKeys(k trace.KeyGen) { w.writeKeys = k }

// Now returns the time of the last generated operation.
func (w *MixedWorkload) Now() kernel.Time { return w.now }

// Next returns the next operation.
func (w *MixedWorkload) Next() Op {
	gap := trace.Exponential(w.rng, w.meanGap)
	if gap < 1 {
		gap = 1
	}
	w.now += kernel.Time(gap)
	write := w.rng.Float64() < w.writeFrac
	gen := w.keys
	if write && w.writeKeys != nil {
		gen = w.writeKeys
	}
	return Op{
		At:    w.now,
		LBA:   gen.Next(),
		Write: write,
	}
}
