// Command guardrail-bench is the experiment harness: it runs every
// experiment in the reproduction's index (DESIGN.md / EXPERIMENTS.md)
// and prints the paper-style rows and series. Every experiment runs in
// simulated time from the seed, so the same seed prints the same bytes
// on every machine; host time is measured in one place only,
// `go run ./benchmark` (benchmark/README.md).
//
// Usage:
//
//	guardrail-bench [-seed N] [-only fig2,p1,p2,p3,p4,p5,p6,osc,trig,chaos,rollout]
//	guardrail-bench -chaos        (just the fault-injection run)
//	guardrail-bench -rollout-chaos [-rollout-out report.json]
//	guardrail-bench -only fig2 -metrics-out metrics.json -trace-out trace.json
//	guardrail-bench -only fig2 -bench-out BENCH_fig2.json
//	guardrail-bench -only fig2 -prov -why-out why.json
//	guardrail-bench -only fig2 -serve :9090
//
// An id -only does not know is an error (exit 2), as is a fig2-scoped
// flag (-metrics-out -trace-out -bench-out -prov -why-out -serve) on a
// selection that leaves fig2 out.
//
// The chaos experiment (also selectable as -only chaos) reruns Figure 2
// under the standard fault plan and reports the fault audit and the
// breaker's recovery latency.
//
// The rollout chaos experiment (-rollout-chaos, or -only rollout) runs
// staged fleet rollouts against the rollout control plane: a healthy
// canary must auto-promote through transient admission failures, a
// violation storm must roll back in shadow, a broken corrective action
// must roll back at canary share, and breakglass must quarantine
// fleet-wide. The process exits nonzero when any rollback is missed;
// -rollout-out archives the JSON report.
//
// Decision provenance (-prov) attaches a sampled per-fire "why"
// recorder to the fig2 guarded stack; the simulated results are
// identical with or without it. -why-out archives the records as JSON,
// and -serve keeps the process alive after the runs serving the live
// ops endpoint (/metrics, /snapshot.json, /flight, /why?monitor=...,
// /healthz) — point `grailctl explain` at it.
//
// The telemetry flags apply to the Figure 2 run: -metrics-out writes
// the guarded system's counter/histogram snapshot as JSON, -trace-out
// writes its flight recorder as Chrome trace_event JSON (loadable in
// Perfetto or chrome://tracing), and -bench-out writes the
// deterministic per-config latency/violation summary committed as
// BENCH_fig2.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"guardrails/internal/experiments"
	"guardrails/internal/kernel"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
)

// writeFile streams one export (snapshot, trace, bench summary) to path.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usageError reports a command line that would otherwise run nothing,
// or drop a flag, and exits 2 like the flag package does.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "guardrail-bench: "+msg)
	os.Exit(2)
}

func main() {
	seed := flag.Int64("seed", 1, "experiment seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	chaos := flag.Bool("chaos", false, "run only the fault-injection chaos experiment")
	rolloutChaos := flag.Bool("rollout-chaos", false, "run only the staged-rollout chaos experiment")
	rolloutOut := flag.String("rollout-out", "", "write the rollout chaos report (JSON) to this file")
	metricsOut := flag.String("metrics-out", "", "write the fig2 guarded system's telemetry snapshot (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the fig2 guarded system's flight recorder (Chrome trace_event JSON) to this file")
	benchOut := flag.String("bench-out", "", "write the fig2 per-config benchmark summary (JSON) to this file")
	prov := flag.Bool("prov", false, "attach a sampled decision-provenance recorder to the fig2 guarded stack")
	whyOut := flag.String("why-out", "", "write the fig2 decision-provenance records (JSON) to this file (implies -prov)")
	serveAddr := flag.String("serve", "", "after the runs, serve the fig2 ops endpoint (/metrics, /snapshot.json, /flight, /why, /healthz) on this address and block")
	flag.Parse()

	// The ops endpoint and provenance exports hang off the fig2 run.
	var opsSink *telemetry.Sink
	var opsRec *provenance.Recorder

	type experiment struct {
		id string
		fn func() (string, error)
	}
	exps := []experiment{
		{"fig2", func() (string, error) {
			cfg := experiments.DefaultFig2Config(*seed)
			cfg.CollectLatencies = *benchOut != ""
			var sink *telemetry.Sink
			if *metricsOut != "" || *traceOut != "" || *serveAddr != "" {
				sink = telemetry.New(nil, 8192)
				cfg.Telemetry = sink
				opsSink = sink
			}
			var rec *provenance.Recorder
			if *prov || *whyOut != "" || *serveAddr != "" {
				rec = provenance.New(4096, provenance.DefaultHealthyEvery)
				cfg.Provenance = rec
				opsRec = rec
			}
			r, err := experiments.RunFig2(cfg)
			if err != nil {
				return "", err
			}
			if *metricsOut != "" {
				if err := writeFile(*metricsOut, sink.WriteJSON); err != nil {
					return "", fmt.Errorf("fig2: metrics-out: %w", err)
				}
			}
			if *traceOut != "" {
				if err := writeFile(*traceOut, sink.WriteTrace); err != nil {
					return "", fmt.Errorf("fig2: trace-out: %w", err)
				}
			}
			if *whyOut != "" {
				if err := writeFile(*whyOut, rec.WriteJSON); err != nil {
					return "", fmt.Errorf("fig2: why-out: %w", err)
				}
			}
			if *benchOut != "" {
				b := experiments.NewBenchFig2(cfg, r)
				if err := writeFile(*benchOut, b.WriteJSON); err != nil {
					return "", fmt.Errorf("fig2: bench-out: %w", err)
				}
			}
			return r.Render(), nil
		}},
		{"p1", func() (string, error) {
			r, err := experiments.RunP1Drift(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"p2", func() (string, error) {
			rows, err := experiments.RunP2Robustness(*seed, []float64{0, 0.1, 0.2, 0.3, 0.4})
			if err != nil {
				return "", err
			}
			return experiments.RenderP2(rows), nil
		}},
		{"p3", func() (string, error) {
			r, err := experiments.RunP3OutOfBounds(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"p4", func() (string, error) {
			r, err := experiments.RunP4Quality(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"p5", func() (string, error) {
			rows, err := experiments.RunP5Overhead(*seed, []kernel.Time{
				6 * kernel.Microsecond,
				60 * kernel.Microsecond,
				400 * kernel.Microsecond,
			})
			if err != nil {
				return "", err
			}
			return experiments.RenderP5(rows), nil
		}},
		{"p6", func() (string, error) {
			r, err := experiments.RunP6Fairness(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"osc", func() (string, error) {
			r, err := experiments.RunOscillation(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"trig", func() (string, error) {
			rows, err := experiments.RunTriggerSweep(*seed)
			if err != nil {
				return "", err
			}
			return experiments.RenderTriggers(rows), nil
		}},
		{"chaos", func() (string, error) {
			r, err := experiments.RunChaos(experiments.DefaultChaosConfig(*seed))
			if err != nil {
				return "", err
			}
			out := r.Render()
			if r.Missed > 0 {
				return out, fmt.Errorf("chaos: %d injected faults left no trace", r.Missed)
			}
			return out, nil
		}},
		{"rollout", func() (string, error) {
			r, err := experiments.RunRolloutChaos(experiments.DefaultRolloutChaosConfig(*seed))
			if err != nil {
				return "", err
			}
			if *rolloutOut != "" {
				if err := writeFile(*rolloutOut, func(w io.Writer) error {
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					return enc.Encode(r)
				}); err != nil {
					return "", fmt.Errorf("rollout: rollout-out: %w", err)
				}
			}
			out := r.Render()
			if !r.Pass {
				return out, fmt.Errorf("rollout: %d acceptance check(s) failed (missed rollback or breakglass)", len(r.Failures))
			}
			return out, nil
		}},
	}

	// Selection: -only ids plus the -chaos / -rollout-chaos shorthands;
	// nothing named selects everything. A typo must not select nothing,
	// and a fig2 export must not be asked of a run that skips fig2.
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.id)
	}
	want := map[string]bool{}
	fig2Flag := ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "only":
			for _, id := range strings.Split(*only, ",") {
				id = strings.TrimSpace(id)
				if !slices.Contains(ids, id) {
					usageError(fmt.Sprintf("-only: unknown experiment %q; valid ids: %s", id, strings.Join(ids, ",")))
				}
				want[id] = true
			}
		case "metrics-out", "trace-out", "bench-out", "prov", "why-out", "serve":
			if fig2Flag == "" {
				fig2Flag = f.Name
			}
		}
	})
	if *chaos {
		want["chaos"] = true
	}
	if *rolloutChaos {
		want["rollout"] = true
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }
	if fig2Flag != "" && !run("fig2") {
		usageError("-" + fig2Flag + " applies to the fig2 run, which this selection leaves out")
	}

	exit := 0
	for _, e := range exps {
		if !run(e.id) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", e.id)
		out, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			exit = 1
			continue
		}
		fmt.Println(out)
	}

	if *serveAddr != "" && opsSink != nil {
		srv, err := telemetry.ServeOps(*serveAddr, telemetry.OpsConfig{
			Sink: func() *telemetry.Sink { return opsSink },
			Why: func(name string, n int) (any, error) {
				return provenance.Views(opsRec.ForMonitor(name, n)), nil
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving ops endpoint on http://%s (/metrics /snapshot.json /flight /why /healthz); ^C to stop\n", srv.Addr())
		select {} // serve until interrupted
	}
	os.Exit(exit)
}
