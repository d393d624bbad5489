// Package gen makes every benchmark input from a seed: feature-value
// schedules and violation positions for the fire workloads, the wide
// guardrail, and the synthetic check_manifest deployment with its
// planted ground truth. The program under test receives only what is
// generated here (spec text, values), never the seed.
//
// Inputs come in two forms with the same content: spec source text for
// the program under test, and plain data (Expr trees, Guardrail structs)
// for benchmark/oracle, which evaluates them without the compiler or VM.
package gen

// RNG is splitmix64: a fixed, self-contained generator, so a seed maps
// to the same inputs on every Go version and machine.
type RNG struct{ s uint64 }

// NewRNG returns the generator for one named input stream of a seed.
// Streams are independent: adding a stream never shifts another's draws.
func NewRNG(seed int64, stream string) *RNG {
	// FNV-1a over the stream name, folded into the seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	r := &RNG{s: uint64(seed)*0x9e3779b97f4a7c15 ^ h}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float returns a uniform value in [0, 1).
func (r *RNG) Float() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 { return lo + (hi-lo)*r.Float() }

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Grid returns a uniform multiple of step in [lo, hi): values with a
// short exact decimal form, so spec text round-trips through the lexer
// to the same float64 the oracle holds.
func (r *RNG) Grid(lo, hi, step float64) float64 {
	n := int((hi - lo) / step)
	if n < 1 {
		n = 1
	}
	return lo + float64(r.Intn(n))*step
}
