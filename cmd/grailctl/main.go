// Command grailctl is the fleet-operations CLI for guardrail
// deployments: it diffs two deployment generations semantically and
// rehearses a staged rollout (shadow → canary → fleet-wide) against a
// deterministic synthetic workload before anyone touches a live fleet.
//
// Usage:
//
//	grailctl diff [-budget N] [-json] -old a.grail[,b.grail...] -new c.grail[,...]
//	grailctl rollout [-seed N] [-budget N] [-json] [-shadow-ms N] [-canary-ms N]
//	         [-canary-share num/den] -old a.grail[,...] -new c.grail[,...]
//
// diff prints each guardrail's change classification (added, removed,
// retuned, modified, unchanged, with per-item details such as threshold
// deltas), then re-runs interference analysis scoped to the changed
// guardrails and their coupled neighbours. When the candidate
// generation declares "assert" property blocks, diff also runs the
// bounded temporal model checker over the whole candidate (GM001…
// diagnostics) — a retuned guardrail that refutes a declared property
// is caught here, before any rehearsal. Exit status: 0 when the scoped
// analysis is clean and every property is proved, 1 on warnings or
// unproved properties, 2 on usage or spec errors.
//
// rollout loads the old generation into a simulated kernel, drives a
// seeded synthetic workload over every hook site and feature key the
// deployment touches, then runs the new generation through the staged
// rollout control plane with telemetry-gated promotion. Exit status: 0
// when the candidate promotes, 1 when it is refused, rolls back, or
// fails static, 2 on usage or spec errors — so a CI pipeline can
// rehearse a rollout and block the real one on regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/rollout"
	"guardrails/internal/spec"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/telemetry"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "diff":
		return runDiff(stdout, stderr, args[1:])
	case "rollout":
		return runRollout(stdout, stderr, args[1:])
	case "explain":
		return runExplain(stdout, stderr, args[1:])
	default:
		fmt.Fprintf(stderr, "grailctl: unknown verb %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: grailctl diff    [-budget N] [-json] -old specs -new specs
       grailctl rollout [-seed N] [-budget N] [-json] [-shadow-ms N] [-canary-ms N] [-canary-share num/den] -old specs -new specs
       grailctl explain [-addr host:port] [-n N] [-json] monitor
specs is a comma-separated list of .grail files`)
}

// loadGeneration parses, checks, and compiles a comma-separated spec
// list into one deployment generation.
func loadGeneration(list string) (*deploy.Deployment, error) {
	var paths []string
	for _, path := range strings.Split(list, ",") {
		if path = strings.TrimSpace(path); path != "" {
			paths = append(paths, path)
		}
	}
	srcs, err := deploy.ReadSources(paths)
	if err != nil {
		return nil, err
	}
	return deploy.Load(srcs...)
}

// loadGenerations loads the -old (possibly empty) and -new spec lists.
func loadGenerations(stderr io.Writer, oldList, newList string) (old, new *deploy.Deployment, ok bool) {
	if newList == "" {
		fmt.Fprintln(stderr, "grailctl: -new is required")
		return nil, nil, false
	}
	old, err := loadGeneration(oldList)
	if err == nil {
		new, err = loadGeneration(newList)
	}
	if err != nil {
		fmt.Fprintf(stderr, "grailctl: %v\n", err)
		return nil, nil, false
	}
	return old, new, true
}

// --- diff ---------------------------------------------------------------

func runDiff(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("grailctl diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budget := fs.Int("budget", 0, "default per-hook-site certified step budget (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the diff and scoped report as JSON")
	oldList := fs.String("old", "", "comma-separated spec files of the incumbent generation")
	newList := fs.String("new", "", "comma-separated spec files of the candidate generation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	old, new, ok := loadGenerations(stderr, *oldList, *newList)
	if !ok {
		return 2
	}

	d := rollout.Compare(old.Monitors, new.Monitors)
	new.HookBudget = *budget
	// Declared temporal properties gate the candidate generation the
	// same way they gate rollout.Begin: a candidate that breaks an
	// "assert" block is refused at diff time, before any rehearsal.
	verdict, names := rollout.CheckScoped(d, new)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Diff     *rollout.Diff      `json:"diff"`
			Scope    []string           `json:"scope"`
			Report   *interfere.Report  `json:"report"`
			Temporal *modelcheck.Report `json:"temporal,omitempty"`
		}{d, names, verdict.Report, verdict.Temporal}); err != nil {
			fmt.Fprintf(stderr, "grailctl: %v\n", err)
			return 2
		}
	} else {
		for _, ch := range d.Changes {
			fmt.Fprintln(stdout, ch.String())
		}
		fmt.Fprintf(stdout, "diff: %s\n", d.Summary())
		fmt.Fprintf(stdout, "scoped re-analysis (%d of %d guardrails: %s): %s\n",
			len(names), len(new.Monitors), strings.Join(names, ", "), verdict.Report.Summary())
		verdict.WriteText(stdout, new.FileOf)
		if verdict.Temporal != nil {
			fmt.Fprintf(stdout, "model check: %s\n", verdict.Temporal.Summary())
		}
	}
	if !verdict.Clean() {
		return 1
	}
	return 0
}

// --- rollout rehearsal --------------------------------------------------

func runRollout(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("grailctl rollout", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed")
	budget := fs.Int("budget", 0, "default per-hook-site certified step budget (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the rehearsal outcome as JSON")
	shadowMS := fs.Int("shadow-ms", 500, "shadow window (simulated milliseconds)")
	canaryMS := fs.Int("canary-ms", 1000, "canary window (simulated milliseconds)")
	share := fs.String("canary-share", "1/4", "canary action-traffic share (num/den)")
	oldList := fs.String("old", "", "comma-separated spec files of the incumbent generation")
	newList := fs.String("new", "", "comma-separated spec files of the candidate generation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var num, den uint64
	if _, err := fmt.Sscanf(*share, "%d/%d", &num, &den); err != nil || den == 0 || num == 0 {
		fmt.Fprintf(stderr, "grailctl: bad -canary-share %q (want num/den)\n", *share)
		return 2
	}
	old, new, ok := loadGenerations(stderr, *oldList, *newList)
	if !ok {
		return 2
	}

	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 1<<15)
	rt.SetTelemetry(sink)
	k.SetTelemetry(sink)

	for _, c := range old.Monitors {
		if _, err := rt.Load(c, monitor.Options{}); err != nil {
			fmt.Fprintf(stderr, "grailctl: loading incumbent %s: %v\n", c.Name, err)
			return 2
		}
	}
	ctl := rollout.NewController(rt)
	ctl.Adopt(old.Monitors)

	driveWorkload(k, st, old, new, *seed)

	cfg := rollout.Config{
		ShadowWindow: kernel.Time(*shadowMS) * kernel.Millisecond,
		CanaryWindow: kernel.Time(*canaryMS) * kernel.Millisecond,
		CanaryNum:    num, CanaryDen: den,
		HookBudget: *budget,
		Features:   new.Features,
		Properties: new.Properties,
	}
	err := ctl.Begin(new.Monitors, cfg)
	if err == nil {
		// Rollouts run as kernel events; drive the clock until terminal.
		deadline := kernel.Time(10*(*shadowMS+*canaryMS)) * kernel.Millisecond
		for k.Now() < deadline && !ctl.Phase().Terminal() {
			k.RunUntil(k.Now() + 100*kernel.Millisecond)
		}
	}

	outcome := struct {
		Phase   string           `json:"phase"`
		Reason  string           `json:"reason,omitempty"`
		Refused string           `json:"refused,omitempty"`
		Gen     uint64           `json:"fleet_generation"`
		Diff    *rollout.Diff    `json:"diff"`
		History []rollout.Record `json:"history"`
	}{
		Phase: ctl.Phase().String(), Reason: ctl.Reason(),
		Gen: ctl.FleetGeneration(), Diff: rollout.Compare(old.Monitors, new.Monitors),
		History: ctl.History(),
	}
	if err != nil {
		outcome.Refused = err.Error()
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outcome); err != nil {
			fmt.Fprintf(stderr, "grailctl: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "diff: %s\n", outcome.Diff.Summary())
		for _, rec := range outcome.History {
			fmt.Fprintf(stdout, "%-12s gen=%d %s", rec.At, rec.Gen, rec.Event)
			if rec.Note != "" {
				fmt.Fprintf(stdout, "  (%s)", rec.Note)
			}
			fmt.Fprintln(stdout)
		}
		if outcome.Refused != "" {
			fmt.Fprintf(stdout, "rollout rehearsal: refused: %s\n", outcome.Refused)
		} else {
			fmt.Fprintf(stdout, "rollout rehearsal: %s (fleet generation %d)\n", outcome.Phase, outcome.Gen)
			if outcome.Reason != "" {
				fmt.Fprintf(stdout, "  reason: %s\n", outcome.Reason)
			}
		}
	}
	if err != nil || ctl.Phase() != rollout.PhasePromoted {
		return 1
	}
	return 0
}

// driveWorkload synthesizes deterministic traffic for the rehearsal:
// every FUNCTION hook site either generation attaches to fires each
// simulated millisecond, and every feature key any program loads is
// refreshed from the seeded generator — uniform over its declared
// range, or [0, 1) when undeclared.
func driveWorkload(k *kernel.Kernel, st *featurestore.Store, old, new *deploy.Deployment, seed int64) {
	sites := map[string]bool{}
	loadKeys := map[string]bool{}
	for _, g := range []*deploy.Deployment{old, new} {
		for _, c := range g.Monitors {
			for _, site := range c.Footprint.Sites {
				sites[site] = true
			}
			for _, key := range c.Footprint.Loads {
				loadKeys[key] = true
			}
		}
	}
	ranges := spec.RangesOf(append(append([]*spec.FeatureDecl{}, old.Features...), new.Features...))
	rng := rand.New(rand.NewSource(seed))
	var siteList []string
	for s := range sites {
		siteList = append(siteList, s)
	}
	var keyList []string
	for key := range loadKeys {
		keyList = append(keyList, key)
	}
	// Deterministic iteration order.
	sort.Strings(siteList)
	sort.Strings(keyList)
	k.Every(0, kernel.Millisecond, 0, func(now kernel.Time) {
		for _, key := range keyList {
			lo, hi := 0.0, 1.0
			if fd, ok := ranges[key]; ok {
				lo, hi = fd.Lo, fd.Hi
			}
			st.Save(key, lo+rng.Float64()*(hi-lo))
		}
		for _, s := range siteList {
			k.Fire(s, rng.Float64())
		}
	})
}
