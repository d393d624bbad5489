package main

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/rollout"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
)

// findings is a gate's verdict reduced to what must agree across gates:
// the (code, guardrail) warnings and each declared property's status.
type findings struct {
	Warnings   []string
	Properties []string
}

func findingsOf(rep *interfere.Report, temporal *modelcheck.Report) findings {
	var f findings
	add := func(ds []interfere.Diagnostic) {
		for _, d := range ds {
			if d.Severity == interfere.Warn {
				f.Warnings = append(f.Warnings, d.Code+" "+d.Guardrail)
			}
		}
	}
	if rep != nil {
		add(rep.Diagnostics)
	}
	if temporal != nil {
		add(temporal.Diagnostics)
		for _, p := range temporal.Properties {
			f.Properties = append(f.Properties, p.Property+": "+p.Status)
		}
	}
	sort.Strings(f.Warnings)
	return f
}

// findingsOfJSON reduces grailcheck's -json artifact the same way.
func findingsOfJSON(t *testing.T, artifact string) findings {
	t.Helper()
	type diags []struct{ Code, Severity, Guardrail string }
	var doc struct {
		Diagnostics diags
		Temporal    struct {
			Diagnostics diags
			Properties  []struct{ Property, Status string }
		}
	}
	if err := json.Unmarshal([]byte(artifact), &doc); err != nil {
		t.Fatalf("bad JSON artifact: %v\n%s", err, artifact)
	}
	var f findings
	for _, d := range append(doc.Diagnostics, doc.Temporal.Diagnostics...) {
		if d.Severity == "warning" {
			f.Warnings = append(f.Warnings, d.Code+" "+d.Guardrail)
		}
	}
	for _, p := range doc.Temporal.Properties {
		f.Properties = append(f.Properties, p.Property+": "+p.Status)
	}
	sort.Strings(f.Warnings)
	return f
}

// TestEveryGateGivesTheSameVerdict loads each checked-in deployment
// through every load-time gate that takes a whole deployment — the
// deploy package itself, grailcheck, and rollout.Begin from an empty
// incumbent — and requires them to agree on clean vs. refused, on the
// warning set, and on every property's status. The rollout controller
// takes no shard width, aggregate set, shadow list or per-site budget,
// so manifests declaring one are compared across the first two only.
func TestEveryGateGivesTheSameVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		manifest string
		files    []string
		clean    bool
	}{
		{name: "clean", manifest: "clean.json", clean: true},
		{name: "conflict", manifest: "conflict.json"},
		{name: "budget", manifest: "budget.json"},
		{name: "sharded", manifest: "sharded.json"},
		{name: "aggregates-clean", manifest: "aggregates_clean.json", clean: true},
		{name: "aggregates-dirty", manifest: "aggregates_dirty.json"},
		{name: "temporal-clean", manifest: "temporal_clean.json", clean: true},
		{name: "temporal-clean-file", files: []string{"temporal_clean.grail"}, clean: true},
		{name: "temporal-osc", files: []string{"temporal_osc.grail"}},
		{name: "feedback", files: []string{"feedback.grail"}},
		{name: "witness", files: []string{"witness.grail"}},
		{name: "deep-witness", files: []string{"deep_witness.grail"}},
		{name: "listing2", files: []string{"listing2.grail"}, clean: true},
		{name: "aggregates-no-context", files: []string{"aggregates.grail"}, clean: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var args, paths []string
			manifest := &deploy.Manifest{}
			if tc.manifest != "" {
				path := filepath.Join("testdata", tc.manifest)
				var err error
				if manifest, err = deploy.ReadManifest(path); err != nil {
					t.Fatal(err)
				}
				args, paths = []string{"-manifest", path}, manifest.Specs
			}
			for _, f := range tc.files {
				args, paths = append(args, filepath.Join("testdata", f)), append(paths, filepath.Join("testdata", f))
			}

			// Gate 1: the deploy package.
			srcs, err := deploy.ReadSources(paths)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := deploy.Load(srcs...)
			if err != nil {
				t.Fatal(err)
			}
			if err := manifest.Apply(dep); err != nil {
				t.Fatal(err)
			}
			verdict := dep.Check(deploy.Checks{})
			want := findingsOf(verdict.Report, verdict.Temporal)
			if verdict.Clean() != tc.clean {
				t.Fatalf("deploy verdict clean = %v, want %v (%+v)", verdict.Clean(), tc.clean, want)
			}

			// Gate 2: grailcheck's exit status and JSON artifact.
			out, errb, code := runCheck(t, append([]string{"-json"}, args...)...)
			if (code == 0) != tc.clean || code > 1 {
				t.Errorf("grailcheck exited %d, clean = %v\n%s", code, tc.clean, errb)
			}
			if got := findingsOfJSON(t, out); !reflect.DeepEqual(got, want) {
				t.Errorf("grailcheck findings = %+v, deploy's = %+v", got, want)
			}

			if manifest.Shards != 0 || manifest.Aggregates != nil || manifest.Shadow != nil || manifest.HookBudgets != nil {
				return
			}

			// Gate 3: a rollout from nothing — every guardrail is "added",
			// so the scoped analysis is the whole deployment.
			ctl := rollout.NewController(monitor.New(kernel.New(), featurestore.New()))
			err = ctl.Begin(dep.Monitors, rollout.Config{
				Features: dep.Features, Properties: dep.Properties,
				HookBudget: dep.HookBudget,
			})
			if (err == nil) != tc.clean {
				t.Errorf("rollout.Begin err = %v, clean = %v", err, tc.clean)
			}
			var refused *rollout.RefusedError
			if errors.As(err, &refused) {
				// Begin reports the pass that refused: interference when it
				// warned, else the model checker.
				got, wantPass := findingsOf(refused.Report, refused.Temporal), want
				if refused.Temporal == nil {
					wantPass = findingsOf(verdict.Report, nil)
				} else {
					wantPass = findingsOf(nil, verdict.Temporal)
				}
				if !reflect.DeepEqual(got, wantPass) {
					t.Errorf("rollout.Begin findings = %+v, deploy's = %+v", got, wantPass)
				}
			}
		})
	}
}
