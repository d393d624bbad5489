package monitor

import (
	"fmt"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/spec"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
)

// DuplicateLoadError reports an attempt to load a guardrail under a
// name that is already loaded — the runtime analogue of the deployment
// analyzer's GI007 finding, coded the same so a load failure and an
// offline grailcheck run point at the same defect.
type DuplicateLoadError struct {
	// Name is the already-loaded guardrail name.
	Name string
}

// Error implements error.
func (e *DuplicateLoadError) Error() string {
	return fmt.Sprintf("monitor: [%s] guardrail %q already loaded: duplicate deployment",
		interfere.CodeDuplicateName, e.Name)
}

// DeployPolicy selects what LoadDeployment does when the interference
// analysis finds warnings.
type DeployPolicy int

// Deploy policies.
const (
	// DeployEnforce refuses the whole deployment on any warning —
	// nothing is loaded. The default: interference is a deployment bug.
	DeployEnforce DeployPolicy = iota
	// DeployWarn loads the deployment but quarantines the implicated
	// monitors: conflict-, cycle-, and dead-guardrail-implicated
	// monitors load in shadow mode (rules evaluate, actions are
	// suppressed), and monitors on over-budget hook sites load
	// disabled. Duplicate-name entries beyond the first are skipped.
	DeployWarn
)

// DeployConfig parameterizes LoadDeployment.
type DeployConfig struct {
	// Policy is the warning disposition (default DeployEnforce).
	Policy DeployPolicy
	// Features are the declared feature ranges the analysis refines
	// monitor inputs with (typically spec.FeatureRanges of the parsed
	// files, flattened).
	Features []*spec.FeatureDecl
	// HookBudget is the default per-hook-site certified step budget
	// (0 = unlimited); HookBudgets overrides it per site. Enforced both
	// statically (GI005) and by kernel.AdmitDeployment.
	HookBudget  int
	HookBudgets map[string]int
	// Properties are declared temporal properties (assert blocks or
	// manifest "properties" entries). When non-empty, LoadDeployment
	// additionally model-checks the deployment (spec/modelcheck): under
	// DeployEnforce a refuted or inconclusive property refuses the
	// deployment; under DeployWarn the monitors a GM diagnostic
	// implicates load in shadow mode.
	Properties []*spec.PropertyDecl
	// Options are the per-monitor load options applied to every monitor
	// in the deployment (ShadowMode may additionally be forced per
	// monitor under DeployWarn).
	Options Options
}

// DeployResult reports what LoadDeployment did.
type DeployResult struct {
	// Report is the interference analysis of the requested deployment.
	Report *interfere.Report
	// Temporal is the model-checking report (nil unless
	// DeployConfig.Properties was non-empty).
	Temporal *modelcheck.Report
	// Monitors are the loaded monitors, in input order (skipped
	// duplicates excluded).
	Monitors []*Monitor
	// Shadowed names monitors force-loaded in shadow mode under
	// DeployWarn because a conflict, cycle, dead-guardrail, or
	// refined-verification warning implicates them.
	Shadowed []string
	// Disabled names monitors loaded disabled under DeployWarn because
	// their hook site is over budget.
	Disabled []string
	// Skipped names duplicate-name entries not loaded under DeployWarn.
	Skipped []string
}

// DeployError is LoadDeployment's refusal under DeployEnforce: the
// analysis found warnings (or the kernel's admission test failed) and
// nothing was loaded.
type DeployError struct {
	// Report is the full analysis; Admission is the kernel's admission
	// error when the budget half failed (nil otherwise); Temporal is
	// the model-checking report when a declared property refused the
	// deployment (nil otherwise).
	Report    *interfere.Report
	Admission error
	Temporal  *modelcheck.Report
}

// Error implements error.
func (e *DeployError) Error() string {
	msg := fmt.Sprintf("monitor: deployment refused: %s", e.Report.Summary())
	for _, d := range e.Report.Diagnostics {
		if d.Severity == interfere.Warn {
			msg += "\n\t" + d.String()
		}
	}
	if e.Temporal != nil {
		msg += "\n\t" + e.Temporal.Summary()
		for _, d := range e.Temporal.Diagnostics {
			if d.Severity == interfere.Warn {
				msg += "\n\t" + d.String()
			}
		}
	}
	if e.Admission != nil {
		msg += "\n\t" + e.Admission.Error()
	}
	return msg
}

// HookLoads projects a deployment's FUNCTION-trigger attachments into
// the kernel's admission-test input, one HookLoad per (monitor, site)
// pair carrying the program's certified worst-case step count.
func HookLoads(cs []*compile.Compiled) []kernel.HookLoad {
	var loads []kernel.HookLoad
	for _, c := range cs {
		for _, site := range c.Footprint.Sites {
			loads = append(loads, kernel.HookLoad{
				Site:     site,
				Monitor:  c.Name,
				MaxSteps: c.Program.Meta.MaxSteps,
			})
		}
	}
	return loads
}

// LoadDeployment loads a set of compiled guardrails as one deployment:
// it runs the deployment checks (package deploy: interference analysis,
// and model checking when cfg declares properties) and the kernel's
// aggregate-budget admission test (kernel.AdmitDeployment) before
// arming anything, so a conflicting deployment is refused atomically
// rather than discovered in production as dispatch-order-dependent
// behavior.
//
// Under DeployEnforce (default) any warning refuses the whole
// deployment with a *DeployError and loads nothing. Under DeployWarn
// the deployment loads, degraded: implicated monitors are quarantined
// (shadow mode or disabled, see DeployPolicy) and the result lists
// them. Load errors mid-way unload everything already loaded.
func (r *Runtime) LoadDeployment(cs []*compile.Compiled, cfg DeployConfig) (*DeployResult, error) {
	dep := &deploy.Deployment{
		Monitors:    cs,
		Features:    cfg.Features,
		Properties:  cfg.Properties,
		HookBudget:  cfg.HookBudget,
		HookBudgets: cfg.HookBudgets,
	}
	verdict := dep.Check(deploy.Checks{})
	admErr := r.k.AdmitDeployment(cfg.HookBudget, cfg.HookBudgets, HookLoads(cs))

	res := &DeployResult{Report: verdict.Report, Temporal: verdict.Temporal}
	if cfg.Policy == DeployEnforce && (!verdict.Clean() || admErr != nil) {
		derr := &DeployError{Report: verdict.Report, Admission: admErr}
		if verdict.Temporal != nil && !verdict.Temporal.Clean() {
			derr.Temporal = verdict.Temporal
		}
		return res, derr
	}

	var shadow, disable map[string]bool
	skip := map[int]bool{}
	if cfg.Policy == DeployWarn {
		shadow, disable = verdict.Quarantine()
		seen := map[string]bool{}
		for i, c := range cs {
			if seen[c.Name] {
				skip[i] = true
				res.Skipped = append(res.Skipped, c.Name)
			}
			seen[c.Name] = true
		}
	}

	for i, c := range cs {
		if skip[i] {
			continue
		}
		opts := cfg.Options
		if shadow[c.Name] {
			opts.ShadowMode = true
		}
		m, err := r.Load(c, opts)
		if err != nil {
			for _, loaded := range res.Monitors {
				_ = r.Unload(loaded.Name())
			}
			return res, err
		}
		if disable[c.Name] {
			m.SetEnabled(false)
			res.Disabled = append(res.Disabled, c.Name)
		} else if shadow[c.Name] {
			res.Shadowed = append(res.Shadowed, c.Name)
		}
		res.Monitors = append(res.Monitors, m)
	}
	return res, nil
}
