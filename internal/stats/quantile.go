package stats

// Quantile returns the p-quantile of sorted (ascending) using linear
// interpolation between closest ranks. sorted must be non-empty and
// already sorted; p is clamped to [0, 1].
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	p = Clamp(p, 0, 1)
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
