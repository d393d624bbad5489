// Command benchmark is the repository's benchmark: six seeded workloads
// over the guardrail fire path, the sharded pool, the deployment checker
// and the Figure-2 stack, each checked against an independent oracle,
// with an outside-in per-layer cost ledger. BENCHMARK.json at the
// repository root declares it; README.md in this directory is the
// glossary.
//
//	go run ./benchmark [-workload name] [-seed N] [-seconds S] [-trace 0|1]
//	                   [-json out.json] [-trace-out trace.json]
//	go run ./benchmark -compare a.json b.json
//
// With -trace 0 (the default) a run is the untraced pass and reports the
// end-to-end metrics; with -trace 1 it is the layer replay and reports
// the per-layer metrics. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"} for the (last)
// workload run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"guardrails/benchmark/span"
)

// workloads lists the six workloads in the order they run.
var workloads = []*workload{fireBare, fireObserved, fireWide, fireSharded, checkManifest, fig2Stack}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1, "seed of the input generator")
	seconds := fs.Int("seconds", 15, "timed seconds per workload")
	traced := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: layer replay, per-layer metrics")
	jsonOut := fs.String("json", "", "write the full result (host, rounds, raw round values) to this file")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace_event JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-json out.json] [-trace-out trace.json]")
		return 2
	}

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	out := &resultFile{Host: hostInfo(), Seed: *seed, Seconds: *seconds, Traced: *traced == 1}
	budget := time.Duration(*seconds) * time.Second
	var tr *span.Recorder
	if out.Traced {
		tr = span.New()
	}
	for _, w := range selected {
		var res *workloadResult
		var err error
		if out.Traced {
			// The layer replay needs the untraced numbers of the same
			// process to subtract from; a third of the budget gives them.
			res, err = runLayers(w, *seed, 1, budget/3, tr)
		} else {
			res, err = runEndToEnd(w, *seed, 1, budget, minRounds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		out.Workloads = append(out.Workloads, *res)
		printWorkload(stdout, res, out.Traced)
	}

	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" && tr != nil {
		if err := writeTraceFile(*traceOut, tr.Spans()); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for i := range out.Workloads {
		if err := json.NewEncoder(stdout).Encode(contractLine(&out.Workloads[i], out.Traced)); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}

// contractResult is the one-line result the benchmark driver reads.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func contractLine(r *workloadResult, traced bool) contractResult {
	m := r.EndToEnd
	if traced {
		m = r.PerLayer
	}
	return contractResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTraceFile(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
