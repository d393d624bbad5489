package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// host records where the numbers were taken, so a result file can be
// judged without the shell history that produced it.
type host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
}

func hostInfo() host {
	return host{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or returns
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultFile is the -json output: everything needed to compare two runs
// and to inspect the spread inside one.
type resultFile struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

// printWorkload prints every metric of one workload by name, with its
// unit.
func printWorkload(w io.Writer, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "== %s  (GOMAXPROCS=%d; %d timed rounds after 1 warm-up, %d set aside as interfered; %d ops in %d batches per round)\n",
		r.Name, r.GOMAXPROCS, r.Rounds, r.Interfered, r.OpsPerRound, r.BatchesPerRound)
	for _, d := range endToEndMetrics {
		m := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-28s %16.6g %-6s  (%s is better; spread over all rounds %.2f%%)\n",
			d.Name, m.Value, m.Unit, d.Better, 100*spread(r.RoundValues[d.Name]))
	}
	for _, name := range wholeMetrics {
		m := r.Whole[name]
		fmt.Fprintf(w, "  %-28s %16.6g %-6s", name, m.Value, m.Unit)
		if name == "kernel.fire_batch_p99_ns" {
			fmt.Fprintf(w, "  (%s)", r.TailLabel)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-28s %16.6g %-6s  (%d of %d ops differ from the oracle)\n",
		"failed_share", r.FailedShare, "ratio", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "    oracle: %s\n", n)
	}
	if !traced {
		return
	}
	fmt.Fprintln(w, "  -- layer replay --")
	for _, d := range perLayerMetrics {
		if _, whole := r.Whole[d.Name]; whole {
			continue
		}
		m := r.PerLayer[d.Name]
		fmt.Fprintf(w, "  %-28s %16.6g %-6s  moves: %s\n", d.Name, m.Value, m.Unit, d.Moves)
	}
}
