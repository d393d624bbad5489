package cache

import (
	"fmt"
	"math"
	"math/rand"

	"guardrails/internal/nn"
	"guardrails/internal/trace"
)

// learnedFeatures is the evictor's input width: normalized recency rank
// and log-scaled frequency.
const learnedFeatures = 2

// Learned is a neural eviction policy in the style of learned cache
// replacement systems: each resident key is scored by a small MLP
// predicting its re-reference probability, and eviction samples a few
// candidates (as production caches do) and removes the lowest-scoring
// one. Trained on one workload it beats random and approaches LRU/LFU;
// under workload shift its scores become uninformative — the behaviour
// the P4 decision-quality guardrail exists to catch.
type Learned struct {
	net  *nn.Network
	rng  *rand.Rand
	tick uint64

	lastAccess map[uint64]uint64
	freq       map[uint64]uint64
	keys       []uint64
	index      map[uint64]int

	// feat is the feature vector of the key being scored.
	feat [learnedFeatures]float64

	// SampleSize candidates are scored per eviction.
	SampleSize int
}

// NewLearned returns an untrained learned evictor.
func NewLearned(seed int64) *Learned {
	return &Learned{
		net: nn.New(nn.Config{
			Layers: []int{learnedFeatures, 8, 1},
			Hidden: nn.ReLU,
			Output: nn.Sigmoid,
			Loss:   nn.BCE,
			Seed:   seed,
		}),
		rng:        trace.NewRand(trace.Split(seed, "evictor")),
		lastAccess: make(map[uint64]uint64),
		freq:       make(map[uint64]uint64),
		index:      make(map[uint64]int),
		SampleSize: 8,
	}
}

// Name identifies the policy.
func (p *Learned) Name() string { return "learned" }

// OnInsert notes an insertion.
func (p *Learned) OnInsert(key uint64) {
	p.tick++
	p.lastAccess[key] = p.tick
	p.freq[key] = 1
	p.index[key] = len(p.keys)
	p.keys = append(p.keys, key)
}

// OnHit refreshes metadata.
func (p *Learned) OnHit(key uint64) {
	p.tick++
	p.lastAccess[key] = p.tick
	p.freq[key]++
}

// OnEvict drops metadata with swap-remove.
func (p *Learned) OnEvict(key uint64) {
	i, ok := p.index[key]
	if !ok {
		return
	}
	last := len(p.keys) - 1
	p.keys[i] = p.keys[last]
	p.index[p.keys[i]] = i
	p.keys = p.keys[:last]
	delete(p.index, key)
	delete(p.lastAccess, key)
	delete(p.freq, key)
}

// features builds the model input for a resident key in the policy's
// own buffer (Victim scores several keys per eviction) and returns a
// view of it, valid until the next call.
func (p *Learned) features(key uint64) []float64 {
	age := float64(p.tick - p.lastAccess[key])
	n := float64(len(p.keys))
	if n == 0 {
		n = 1
	}
	p.feat = [learnedFeatures]float64{
		math.Min(age/n, 4),                   // recency in cache-size units
		math.Log2(float64(p.freq[key])) / 16, // log frequency
	}
	return p.feat[:]
}

// Victim samples SampleSize resident keys and evicts the one with the
// lowest predicted re-reference probability.
func (p *Learned) Victim() uint64 {
	best := p.keys[p.rng.Intn(len(p.keys))]
	bestScore := p.net.Forward(p.features(best))[0]
	for i := 1; i < p.SampleSize && i < len(p.keys); i++ {
		k := p.keys[p.rng.Intn(len(p.keys))]
		if s := p.net.Forward(p.features(k))[0]; s < bestScore {
			best, bestScore = k, s
		}
	}
	return best
}

// TrainOnTrace fits the evictor's scorer on an access trace: for every
// access, the label is whether the same key recurs within horizon
// subsequent accesses (a standard re-reference oracle approximation).
func (p *Learned) TrainOnTrace(keys []uint64, horizon int, cacheSize int) (float64, error) {
	if len(keys) < horizon+1 {
		return 0, fmt.Errorf("cache: trace of %d too short for horizon %d", len(keys), horizon)
	}
	// Replay the trace maintaining the same metadata the policy sees.
	last := make(map[uint64]uint64)
	freq := make(map[uint64]uint64)
	next := make(map[uint64][]int) // key -> positions
	for i, k := range keys {
		next[k] = append(next[k], i)
	}
	var inputs, targets [][]float64
	for i, k := range keys {
		if lastTick, seen := last[k]; seen {
			age := float64(uint64(i) - lastTick)
			f := []float64{
				math.Min(age/float64(cacheSize), 4),
				math.Log2(float64(freq[k])) / 16,
			}
			reused := 0.0
			for _, pos := range next[k] {
				if pos > i && pos <= i+horizon {
					reused = 1
					break
				}
			}
			inputs = append(inputs, f)
			targets = append(targets, []float64{reused})
		}
		last[k] = uint64(i)
		freq[k]++
	}
	if len(inputs) == 0 {
		return 0, fmt.Errorf("cache: no repeated keys in trace")
	}
	return p.net.Train(inputs, targets, nn.TrainOpts{
		LearningRate: 0.05, Momentum: 0.9, BatchSize: 64, Epochs: 8, ShuffleSeed: 3,
	})
}
