package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparison verdicts.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of a's value b is worse, for a metric
// whose better direction is given (negative when b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// judge classifies one (workload, metric) pair. b regressed when its
// median is worse than a's by more than the bound. Otherwise, when the
// round-to-round spread of either side is wider than the bound, the pair
// is unresolved rather than unchanged — unless every round of b reads
// better than every round of a.
func judge(d metricDef, aMedian, bMedian float64, aRounds, bRounds []float64) string {
	if worsening(d.Better, aMedian, bMedian) > d.Bound {
		return verdictRegressed
	}
	wide := spread(aRounds) > d.Bound || spread(bRounds) > d.Bound
	if wide && !allBetter(d.Better, aRounds, bRounds) {
		return verdictUnresolved
	}
	return verdictOK
}

// cleanValues returns a metric's values on the rounds the medians are
// over.
func (r *workloadResult) cleanValues(name string) []float64 {
	vals := r.RoundValues[name]
	if len(r.Clean) != len(vals) {
		return vals
	}
	var out []float64
	for i, v := range vals {
		if r.Clean[i] {
			out = append(out, v)
		}
	}
	return out
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, a as the base, and returns 1 when any row regressed.
func compareFiles(stdout, stderr io.Writer, aPath, bPath string) int {
	a, err := readResult(aPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResult(bPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	byName := map[string]*workloadResult{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	fmt.Fprintf(stdout, "base a = %s (seed %d), b = %s (seed %d)\n", aPath, a.Seed, bPath, b.Seed)
	fmt.Fprintf(stdout, "%-15s %-12s %14s %14s %22s %7s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "verdict")
	regressed := false
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(stdout, "%-15s only in %s\n", wa.Name, aPath)
			continue
		}
		for _, d := range endToEndMetrics {
			ma, mb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			v := judge(d, ma, mb, wa.cleanValues(d.Name), wb.cleanValues(d.Name))
			if v == verdictRegressed {
				regressed = true
			}
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f (of %.6g)", mb/ma, ma)
			}
			fmt.Fprintf(stdout, "%-15s %-12s %14.6g %14.6g %22s %6.0f%%  %s\n",
				wa.Name, d.Name, ma, mb, ratio, 100*d.Bound, v)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(stdout, "%-15s failed ops: a %d, b %d\n", wa.Name, wa.Failed, wb.Failed)
			regressed = regressed || wb.Failed > wa.Failed
		}
	}
	if regressed {
		return 1
	}
	return 0
}
