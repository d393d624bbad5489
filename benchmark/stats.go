package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest percentile of xs, up to want, that
// still has at least minBeyond samples beyond it, with the percentile it
// actually used. With fewer than 2*minBeyond samples there is no such
// tail: it returns the maximum and p = 1, which callers label as the
// slowest sample, not as a percentile.
func tailPercentile(xs []float64, want float64) (value, p float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	if n < 2*minBeyond {
		return s[n-1], 1
	}
	p = want
	if beyond := float64(n) * (1 - p); beyond < minBeyond {
		p = 1 - float64(minBeyond)/float64(n)
	}
	// Nearest rank, leaving at least minBeyond samples above the index.
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx > n-1-minBeyond {
		idx = n - 1 - minBeyond
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx], p
}

// spread returns the interquartile range of xs as a share of its median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (the
// acceptance rule's definition), or 0 with fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}
