// Package trace provides deterministic synthetic workload generation for
// the substrate simulators: seed splitting, Poisson arrivals, Zipf and
// uniform key popularity, and exponential, Pareto and log-normal
// variates. The experiments produce their controlled distribution shift
// by swapping or re-parameterising these generators at a known
// simulated time.
//
// Everything is seeded; the same seeds reproduce the same workload
// exactly, which makes every experiment in the repository replayable.
package trace

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// NewRand returns a deterministic RNG for the given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives an independent child seed from a parent seed and a
// stream label, so subsystems can draw from uncorrelated streams without
// coordinating seed allocation.
func Split(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(stream))
	v := int64(h.Sum64())
	if v < 0 {
		// rand.NewSource rejects nothing, but keep seeds positive for
		// readability in logs.
		v = -v
	}
	return v
}

// Exponential draws an exponential variate with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Pareto draws a bounded Pareto variate with shape alpha and minimum
// xmin — the standard heavy-tailed service-time model.
func Pareto(rng *rand.Rand, xmin, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xmin / math.Pow(u, 1/alpha)
}

// LogNormal draws exp(N(mu, sigma^2)).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}
