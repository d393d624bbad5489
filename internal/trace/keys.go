package trace

import (
	"math/rand"
)

// KeyGen produces access keys in [0, Universe).
type KeyGen interface {
	Next() uint64
	Universe() uint64
}

// ZipfKeys draws keys with Zipf(s) popularity over a universe of n keys,
// optionally permuted so that hot keys are scattered across the key
// space (as real block addresses are).
type ZipfKeys struct {
	z        *rand.Zipf
	n        uint64
	perm     []uint64
	scramble bool
}

// NewZipfKeys returns Zipf-distributed keys over [0, n) with skew s > 1.
// When scramble is true the popularity ranking is randomly permuted over
// the key space.
func NewZipfKeys(seed int64, n uint64, s float64, scramble bool) *ZipfKeys {
	if n == 0 {
		panic("trace: empty key universe")
	}
	if s <= 1 {
		panic("trace: Zipf skew must be > 1 for math/rand Zipf")
	}
	rng := NewRand(seed)
	g := &ZipfKeys{
		z:        rand.NewZipf(rng, s, 1, n-1),
		n:        n,
		scramble: scramble,
	}
	if scramble {
		g.perm = make([]uint64, n)
		for i := range g.perm {
			g.perm[i] = uint64(i)
		}
		permRng := NewRand(Split(seed, "perm"))
		permRng.Shuffle(len(g.perm), func(i, j int) {
			g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		})
	}
	return g
}

// Next returns the next key.
func (g *ZipfKeys) Next() uint64 {
	k := g.z.Uint64()
	if g.scramble {
		return g.perm[k]
	}
	return k
}

// Universe returns the key-space size.
func (g *ZipfKeys) Universe() uint64 { return g.n }

// UniformKeys draws keys uniformly over [0, n).
type UniformKeys struct {
	rng *rand.Rand
	n   uint64
}

// NewUniformKeys returns uniform keys over [0, n).
func NewUniformKeys(seed int64, n uint64) *UniformKeys {
	if n == 0 {
		panic("trace: empty key universe")
	}
	return &UniformKeys{rng: NewRand(seed), n: n}
}

// Next returns the next key.
func (g *UniformKeys) Next() uint64 { return uint64(g.rng.Int63n(int64(g.n))) }

// Universe returns the key-space size.
func (g *UniformKeys) Universe() uint64 { return g.n }
