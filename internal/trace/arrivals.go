package trace

import (
	"math/rand"

	"guardrails/internal/kernel"
)

// Poisson is a homogeneous Poisson arrival process.
type Poisson struct {
	rng  *rand.Rand
	mean float64 // mean interarrival in ns
	now  kernel.Time
}

// NewPoisson returns Poisson arrivals with the given rate in events per
// simulated second, starting at time start.
func NewPoisson(seed int64, ratePerSec float64, start kernel.Time) *Poisson {
	if ratePerSec <= 0 {
		panic("trace: Poisson rate must be positive")
	}
	return &Poisson{
		rng:  NewRand(seed),
		mean: float64(kernel.Second) / ratePerSec,
		now:  start,
	}
}

// Next returns the next arrival time.
func (p *Poisson) Next() kernel.Time {
	gap := Exponential(p.rng, p.mean)
	if gap < 1 {
		gap = 1
	}
	p.now += kernel.Time(gap)
	return p.now
}
