package monitor

import (
	"fmt"

	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
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

// DeployConfig parameterizes LoadDeployment. It is empty: a deployment
// is checked as given and loaded with zero Options. It stays because
// the benchmark passes one.
type DeployConfig struct{}

// DeployResult reports what LoadDeployment did.
type DeployResult struct {
	// Monitors are the loaded monitors, in input order.
	Monitors []*Monitor
}

// DeployError is LoadDeployment's refusal: the interference analysis
// found warnings and nothing was loaded.
type DeployError struct {
	// Report is the full analysis.
	Report *interfere.Report
}

// Error implements error.
func (e *DeployError) Error() string {
	msg := fmt.Sprintf("monitor: deployment refused: %s", e.Report.Summary())
	for _, d := range e.Report.Diagnostics {
		if d.Severity == interfere.Warn {
			msg += "\n\t" + d.String()
		}
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
// the interference analysis (package deploy) runs before anything
// arms, so a conflicting deployment is refused atomically with a
// *DeployError rather than discovered in production as
// dispatch-order-dependent behavior. Load errors mid-way unload
// everything already loaded.
func (r *Runtime) LoadDeployment(cs []*compile.Compiled, _ DeployConfig) (*DeployResult, error) {
	verdict := (&deploy.Deployment{Monitors: cs}).Check(deploy.Checks{})
	// With no hook budget declared admission cannot refuse; it still
	// records the deployment on the telemetry sink.
	_ = r.k.AdmitDeployment(0, nil, HookLoads(cs))
	res := &DeployResult{}
	if !verdict.Clean() {
		return res, &DeployError{Report: verdict.Report}
	}
	for _, c := range cs {
		m, err := r.Load(c, Options{})
		if err != nil {
			for _, loaded := range res.Monitors {
				_ = r.Unload(loaded.Name())
			}
			return res, err
		}
		res.Monitors = append(res.Monitors, m)
	}
	return res, nil
}
