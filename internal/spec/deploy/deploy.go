// Package deploy is the load-time gate every front end goes through. It
// decides, once: how sources become a deployment (Parse, Compile, Load
// and the Manifest format), which checks run and in what order (lint on
// the checked ASTs before compile; then interference, model checking
// exactly when a property is declared or forced, and the GV011 fold, in
// Deployment.Check), and what the verdict means (Verdict: one Clean,
// one quarantine classification, one text rendering). cmd/grailcheck,
// cmd/grailctl, the guardrails facade, monitor.Runtime.LoadDeployment
// and rollout.Controller.Begin all call it, so a deployment one of them
// admits is a deployment all of them admit.
package deploy

import (
	"fmt"
	"io"
	"os"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/spec/vet"
)

// Source is one named specification text. The name (usually a file
// path) prefixes errors and positions diagnostics.
type Source struct{ Name, Text string }

// ReadSources reads the named spec files.
func ReadSources(paths []string) ([]Source, error) {
	srcs := make([]Source, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, Source{Name: path, Text: string(data)})
	}
	return srcs, nil
}

// File is one parsed and checked source.
type File struct {
	Name string
	AST  *spec.File
}

// Files are a deployment's sources after parse and check, before
// compile: the stage the linter runs at, since a spec worth linting may
// not compile.
type Files []File

// named prefixes err with the source name, when there is one.
func named(name string, err error) error {
	if name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", name, err)
}

// Parse parses and checks every source, each exactly once.
func Parse(srcs []Source) (Files, error) {
	fs := make(Files, 0, len(srcs))
	for _, src := range srcs {
		f, err := spec.ParseChecked(src.Text)
		if err != nil {
			return nil, named(src.Name, err)
		}
		fs = append(fs, File{Name: src.Name, AST: f})
	}
	return fs, nil
}

// Lint runs the spec linter over every file, writing each finding as a
// "file:line:col: severity: [GVnnn] …" line plus a per-file summary,
// and returns the number of warnings. aggregates is the registered
// aggregate set (nil = unknown, GV011 off); witness replays the
// findings that claim an action always fires (CONFIRMED / PLAUSIBLE),
// trying at most budget assignments each (0 = default).
func (fs Files) Lint(w io.Writer, aggregates []string, witness bool, budget int) (warnings int) {
	for _, f := range fs {
		ds := vet.FileConfig(f.AST, &vet.Config{Aggregates: aggregates})
		if witness {
			ds = vet.Witnesses(f.AST, ds, budget)
		}
		for _, d := range ds {
			fmt.Fprintf(w, "%s:%s\n", f.Name, d)
		}
		fmt.Fprintf(w, "%s: vet: %s\n", f.Name, vet.Summary(ds))
		warnings += interfere.Warnings(ds)
	}
	return warnings
}

// Compile compiles the checked files into one deployment.
func (fs Files) Compile() (*Deployment, error) {
	d := &Deployment{Files: fs, FileOf: map[string]string{}}
	for _, f := range fs {
		cs, err := compile.CheckedFile(f.AST, compile.DefaultOptions)
		if err != nil {
			return nil, named(f.Name, err)
		}
		for _, c := range cs {
			if _, dup := d.FileOf[c.Name]; !dup {
				d.FileOf[c.Name] = f.Name
			}
		}
		d.Monitors = append(d.Monitors, cs...)
		d.Features = append(d.Features, f.AST.Features...)
		d.Properties = append(d.Properties, f.AST.Properties...)
	}
	return d, nil
}

// Load parses, checks and compiles the sources into one deployment.
func Load(srcs ...Source) (*Deployment, error) {
	fs, err := Parse(srcs)
	if err != nil {
		return nil, err
	}
	return fs.Compile()
}

// Deployment is a set of guardrails that will run together plus the
// declarations the checks judge it by. Load fills every field from
// sources; a caller that already holds compiled monitors fills in what
// it has.
type Deployment struct {
	// Monitors are the compiled guardrails, in source order.
	Monitors []*compile.Compiled
	// Features are the declared feature ranges (first declaration wins).
	Features []*spec.FeatureDecl
	// Properties are the declared temporal properties: the files' assert
	// blocks and a manifest's "properties".
	Properties []*spec.PropertyDecl
	// Shadow names monitors deployed to observe, not act; they stay out
	// of the model checker's transition relation.
	Shadow []string
	// Aggregates are the registered cross-shard aggregate names. nil is
	// unknown; non-nil (even empty) arms GV011 for every LOAD of an
	// unregistered *_global key.
	Aggregates []string
	// HookBudget is one event loop's default per-hook-site certified
	// step budget (0 = unlimited), HookBudgets the per-site overrides,
	// Shards the kernel pool width budgets scale by (0 or 1 = one loop).
	HookBudget  int
	HookBudgets map[string]int
	Shards      int
	// Files are the checked ASTs the monitors were compiled from, and
	// FileOf maps each guardrail to the file declaring it (the first, for
	// a duplicated name) so diagnostics print a resolvable position.
	Files  Files
	FileOf map[string]string
}

// ParseProperties parses free-standing property texts ("always <pred>",
// "eventually <pred> within K"), the form manifests and the library
// facade declare them in.
func ParseProperties(texts []string) ([]*spec.PropertyDecl, error) {
	var props []*spec.PropertyDecl
	for _, text := range texts {
		p, err := spec.ParseProperty(text)
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", text, err)
		}
		props = append(props, p)
	}
	return props, nil
}

// Checks are Check's per-run choices; the zero value is a loader's.
type Checks struct {
	// Scope, when set, narrows the interference analysis to the monitors
	// it admits (a rollout re-analyzes only the changed slice). Model
	// checking always sees the whole deployment.
	Scope func(*compile.Compiled) bool
	// Sweep runs the model checker even with no property declared, for
	// its GM003 oscillation sweep.
	Sweep bool
	// Witness has both analyses replay their findings on the real
	// interpreter (CONFIRMED / PLAUSIBLE), trying at most WitnessBudget
	// assignments per finding (0 = each analysis' default).
	Witness       bool
	WitnessBudget int
}

// Check runs the deployment checks in order: interference analysis;
// model checking when a property is declared (or c.Sweep); and, when
// the aggregate set is known, the GV011 lint folded into the
// interference report so exit status, quarantine and the JSON artifact
// treat it like any other deployment warning.
func (d *Deployment) Check(c Checks) *Verdict {
	whole := &interfere.Deployment{
		Monitors: d.Monitors, Features: d.Features,
		HookBudget: d.HookBudget, HookBudgets: d.HookBudgets, Shards: d.Shards,
		Witness: c.Witness, WitnessBudget: c.WitnessBudget,
	}
	scoped := whole // unscoped, both checks share the value and so its memoized analyses
	if c.Scope != nil {
		cp := *whole
		cp.Monitors = nil
		scoped = &cp
		for _, m := range d.Monitors {
			if c.Scope(m) {
				scoped.Monitors = append(scoped.Monitors, m)
			}
		}
	}
	v := &Verdict{Report: interfere.Analyze(scoped)}
	if c.Sweep || len(d.Properties) > 0 {
		v.Temporal = modelcheck.Check(whole, modelcheck.Config{
			Properties: d.Properties, Shadow: d.Shadow,
			Witness: c.Witness, WitnessBudget: c.WitnessBudget,
		})
	}
	if d.Aggregates != nil {
		for _, f := range d.Files {
			v.Report.Diagnostics = append(v.Report.Diagnostics, vet.UnknownGlobals(f.AST, d.Aggregates)...)
		}
	}
	return v
}

// Verdict is what the checks found.
type Verdict struct {
	// Report is the interference analysis (with any GV011 findings).
	Report *interfere.Report
	// Temporal is the model-checking report; nil when it did not run.
	Temporal *modelcheck.Report
}

// Clean reports a deployment every gate admits: no interference
// warning and, when the model checker ran, every property proved and no
// temporal finding.
func (v *Verdict) Clean() bool {
	return v.Report.Clean() && (v.Temporal == nil || v.Temporal.Clean())
}

// Diagnostics are all the findings, interference first.
func (v *Verdict) Diagnostics() []interfere.Diagnostic {
	ds := append([]interfere.Diagnostic(nil), v.Report.Diagnostics...)
	if v.Temporal != nil {
		ds = append(ds, v.Temporal.Diagnostics...)
	}
	return ds
}

// WriteText renders the findings: one positioned line per diagnostic
// (prefixed with its declaring file from fileOf; a temporal finding's
// abstract trace indented beneath), the per-hook worst-case load table,
// and one line per declared property.
func (v *Verdict) WriteText(w io.Writer, fileOf map[string]string) {
	for _, d := range v.Report.Diagnostics {
		fmt.Fprintf(w, "%s:%s\n", fileOf[d.Guardrail], d)
	}
	for _, s := range v.Report.Sites {
		line := fmt.Sprintf("hook %s: worst case %d certified steps", s.Site, s.Total)
		switch {
		case s.Budget > 0 && s.Shards > 1:
			line += fmt.Sprintf(" (budget %d × %d shards = %d)", s.Budget, s.Shards, s.EffectiveBudget)
		case s.Budget > 0:
			line += fmt.Sprintf(" (budget %d)", s.Budget)
		}
		for _, l := range s.Monitors {
			line += fmt.Sprintf(" %s=%d", l.Guardrail, l.MaxSteps)
		}
		fmt.Fprintln(w, line)
	}
	if v.Temporal == nil {
		return
	}
	for _, d := range v.Temporal.Diagnostics {
		fmt.Fprintf(w, "%s:%s\n", fileOf[d.Guardrail], d)
		for _, line := range d.Trace {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	for _, p := range v.Temporal.Properties {
		line := fmt.Sprintf("property %s: %s", p.Property, p.Status)
		if p.Reason != "" {
			line += " (" + p.Reason + ")"
		}
		if p.Certificate != nil {
			line += fmt.Sprintf(" [%d states, depth %d]", p.Certificate.States, p.Certificate.Depth)
		}
		fmt.Fprintln(w, line)
	}
}
