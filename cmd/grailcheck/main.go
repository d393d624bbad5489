// Command grailcheck is the diagnostics front end for guardrail
// deployments: it takes the set of specification files that will be
// deployed together and runs every load-time check on it — the same
// pipeline (package internal/spec/deploy) the runtime loader, the
// rollout controller and grailctl run, so a deployment grailcheck
// passes is a deployment they admit.
//
// Usage:
//
//	grailcheck [-budget N] [-shards N] [-warn] [-json] [-vet] [-witness] [-check] file.grail...
//	grailcheck -manifest deploy.json
//
// The checks, in order:
//
//   - -vet lints each checked file (internal/spec/vet, GV001…) before
//     anything compiles — the specs it flags may not compile — and any
//     lint warning ends the check there;
//   - the whole-deployment interference analysis
//     (internal/spec/interfere, GI001…): contradictory co-firing
//     actions, SAVE→LOAD feedback cycles across monitors, hook sites
//     whose aggregate certified worst-case cost exceeds their step
//     budget, dead guardrails, and duplicate names;
//   - the bounded temporal model checker (internal/spec/modelcheck,
//     GM001…), whenever a property is declared: "assert always <pred>" /
//     "assert eventually <pred> within K" blocks in the spec files plus
//     the manifest's "properties" list are PROVED (with an exploration
//     certificate), REFUTED (with a multi-step abstract trace), or
//     INCONCLUSIVE (bounds hit). -check forces the model checker when
//     nothing is declared, for its non-convergent SAVE oscillation sweep
//     (GM003).
//
// A deployment manifest (-manifest, format in deploy.Manifest) names the
// spec files, hook budgets, shard count, registered aggregates, extra
// properties and shadow monitors in one place; unknown keys are errors.
// Declaring "aggregates" flags every LOAD of a *_global key with no
// matching registration GV011 (the cell is never written).
//
// -witness attempts bounded counterexample synthesis for the findings
// with replayable claims (GV002/GV003, GI001–GI003, GM001–GM003): each
// is annotated CONFIRMED — with a concrete input whose replay through
// the real VM reproduces it, including both dispatch orders for SAVE
// conflicts — or downgraded to PLAUSIBLE when no witness exists within
// the search bounds (the sound static finding is kept either way).
// -witness-budget caps the concrete assignments tried per finding (0 =
// default).
//
// -sarif writes the combined report as SARIF 2.1.0 to the given path
// ("-" = stdout), the CI code-scanning artifact format; rule ids are
// the stable GV/GI/GM codes.
//
// -budget sets the default per-hook-site certified step budget (0 =
// unlimited) and -shards the kernel pool width each site's budget
// scales by; a manifest's hook_budget and shards take precedence. -json
// emits the full report (diagnostics, the per-site worst-case load
// table, and the temporal report when the model checker ran), the CI
// artifact format; under -json any -vet lines go to stderr.
//
// Exit status: 0 when the deployment checks clean, 1 when a check finds
// warnings or a property is not proved, 2 on usage, manifest or spec
// errors. With -warn, findings are reported but do not fail the check
// (exit 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// combinedReport is the -json artifact shape: the interference report
// plus, when the model checker ran, the temporal report.
type combinedReport struct {
	*interfere.Report
	Temporal *modelcheck.Report `json:"temporal,omitempty"`
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("grailcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budget := fs.Int("budget", 0, "default per-hook-site certified step budget (0 = unlimited)")
	shards := fs.Int("shards", 0, "kernel pool width the deployment runs on (scales hook budgets; 0 or 1 = single loop)")
	warnOnly := fs.Bool("warn", false, "report findings but do not fail on warnings")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	vetFlag := fs.Bool("vet", false, "lint the specifications first (GV001… diagnostics); lint warnings stop the check")
	witness := fs.Bool("witness", false, "attempt counterexample synthesis: annotate replayable findings CONFIRMED (with a witness) or PLAUSIBLE")
	witnessBudget := fs.Int("witness-budget", 0, "max concrete assignments tried per finding during witness synthesis (0 = default)")
	check := fs.Bool("check", false, "run the bounded temporal model checker even when no property is declared (GM003 oscillation sweep)")
	sarifPath := fs.String("sarif", "", "write the combined report as SARIF 2.1.0 to this path (\"-\" = stdout)")
	manifestPath := fs.String("manifest", "", "deployment manifest (JSON: specs, hook_budget, hook_budgets, shards, aggregates, properties, shadow)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "grailcheck: %v\n", err)
		return 2
	}

	paths := fs.Args()
	manifest := &deploy.Manifest{}
	if *manifestPath != "" {
		var err error
		if manifest, err = deploy.ReadManifest(*manifestPath); err != nil {
			return fail(err)
		}
		paths = append(paths, manifest.Specs...)
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: grailcheck [-budget N] [-warn] [-json] [-vet] [-witness] [-check] file.grail... | grailcheck -manifest deploy.json")
		return 2
	}
	srcs, err := deploy.ReadSources(paths)
	if err != nil {
		return fail(err)
	}
	files, err := deploy.Parse(srcs)
	if err != nil {
		return fail(err)
	}

	// Lint runs on the checked ASTs, before compile: the specs it exists
	// to flag (constant-zero divisors, say) may not compile at all, so its
	// warnings end the check here.
	if *vetFlag {
		lintOut := stdout
		if *jsonOut {
			lintOut = stderr // stdout stays one JSON document
		}
		if warns := files.Lint(lintOut, manifest.Aggregates, *witness, *witnessBudget); warns > 0 {
			fmt.Fprintf(stderr, "grailcheck: vet: %d warning(s)\n", warns)
			if *warnOnly {
				return 0
			}
			return 1
		}
	}

	dep, err := files.Compile()
	if err != nil {
		return fail(err)
	}
	dep.HookBudget, dep.Shards = *budget, *shards
	if err := manifest.Apply(dep); err != nil {
		return fail(fmt.Errorf("%s: %w", *manifestPath, err))
	}
	verdict := dep.Check(deploy.Checks{Sweep: *check, Witness: *witness, WitnessBudget: *witnessBudget})

	if *sarifPath != "" {
		out := stdout
		var file *os.File
		if *sarifPath != "-" {
			file, err = os.Create(*sarifPath)
			if err != nil {
				return fail(err)
			}
			out = file
		}
		err := writeSARIF(out, verdict.Diagnostics(), dep.FileOf)
		if file != nil {
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fail(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(combinedReport{Report: verdict.Report, Temporal: verdict.Temporal}); err != nil {
			return fail(err)
		}
	} else {
		verdict.WriteText(stdout, dep.FileOf)
		if verdict.Temporal != nil {
			fmt.Fprintf(stdout, "grailcheck: %s\n", verdict.Temporal.Summary())
		}
		fmt.Fprintf(stdout, "grailcheck: %d guardrail(s): %s\n", len(dep.Monitors), verdict.Report.Summary())
	}

	if !verdict.Clean() && !*warnOnly {
		return 1
	}
	return 0
}
