// Package rollout is the fleet-operations control plane for guardrail
// deployments: staged rollouts (shadow → canary → fleet-wide) with
// telemetry-gated automatic promotion and rollback, semantic deployment
// diffs with scoped interference re-analysis, and a breakglass that
// quarantines a misbehaving guardrail fleet-wide in one call.
//
// The paper's deployment story ends at "guardrails can be updated at
// runtime without a reboot"; this package supplies the operational
// machinery a fleet needs before anyone flips that switch: a candidate
// generation first runs in shadow (evaluating but never acting), then
// as a canary taking a configured fraction of action traffic while the
// incumbent handles the rest, and only goes fleet-wide when its
// violation-rate delta, action-failure rate, fault count, and certified
// step budget stay inside the promotion gates — read back from the same
// telemetry plane operators watch. Any gate regression rolls the fleet
// back to the last-good generation automatically; any control-plane
// fault fails static (the incumbent generation keeps running,
// untouched).
package rollout

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"guardrails/internal/actions"
	"guardrails/internal/compile"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/spec"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
)

// Phase is a rollout's position in the staged state machine.
type Phase int

// Rollout phases.
const (
	// PhaseIdle: no rollout in flight.
	PhaseIdle Phase = iota
	// PhaseAdmitting: the candidate generation is being admission-
	// checked (with retry/backoff on transient failures).
	PhaseAdmitting
	// PhaseShadow: candidates are loaded and evaluating, actions fully
	// suppressed.
	PhaseShadow
	// PhaseCanary: candidates act on a fraction of trigger traffic,
	// incumbents on the complement.
	PhaseCanary
	// PhasePromoted: the candidate generation went fleet-wide.
	PhasePromoted
	// PhaseRolledBack: a gate regression restored the last-good
	// generation.
	PhaseRolledBack
	// PhaseFailed: the rollout was refused or failed static before
	// exposure; the incumbent generation never stopped running.
	PhaseFailed
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseAdmitting:
		return "admitting"
	case PhaseShadow:
		return "shadow"
	case PhaseCanary:
		return "canary"
	case PhasePromoted:
		return "promoted"
	case PhaseRolledBack:
		return "rolled_back"
	case PhaseFailed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// MarshalJSON renders the phase name.
func (p Phase) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", p.String())), nil
}

// Terminal reports whether the phase ends a rollout.
func (p Phase) Terminal() bool {
	return p == PhasePromoted || p == PhaseRolledBack || p == PhaseFailed
}

// Config parameterizes one staged rollout. The zero value gets sane
// defaults from fill.
type Config struct {
	// ShadowWindow is how long candidates run with actions suppressed
	// before the first gate check. Default 500ms.
	ShadowWindow kernel.Time
	// CanaryWindow is how long candidates take canary traffic before
	// the promotion gate check. Default 1s.
	CanaryWindow kernel.Time
	// CanaryNum/CanaryDen is the fraction of action traffic the canary
	// takes (evaluation indices n with n%Den < Num act on the
	// candidate; the incumbent acts on the complement). Default 1/4.
	CanaryNum, CanaryDen uint64
	// Gates are the promotion thresholds. nil means DefaultGates; an
	// explicit &Gates{} is honored as-is (maximally strict
	// zero-tolerance gates).
	Gates *Gates
	// HookBudget is the per-site certified-step budget passed to
	// admission and to the scoped interference analysis (0 = none).
	HookBudget int
	// Features are the declared feature ranges for interference
	// analysis.
	Features []*spec.FeatureDecl
	// Properties are the deployment's declared temporal properties.
	// When non-empty, Begin model-checks the candidate generation
	// (internal/spec/modelcheck) after the scoped interference pass and
	// refuses the rollout — before anything loads — if any property is
	// refuted or any GM diagnostic fires.
	Properties []*spec.PropertyDecl
}

// Admission retries: a *transient* admission failure is retried
// admitRetries times, after admitBackoff doubling per attempt, before
// the rollout fails static. Permanent refusals (kernel.AdmissionError)
// never retry.
const (
	admitRetries = 3
	admitBackoff = 50 * kernel.Millisecond
)

// fill applies defaults.
func (cfg *Config) fill() {
	if cfg.ShadowWindow <= 0 {
		cfg.ShadowWindow = 500 * kernel.Millisecond
	}
	if cfg.CanaryWindow <= 0 {
		cfg.CanaryWindow = kernel.Second
	}
	if cfg.CanaryDen == 0 {
		cfg.CanaryNum, cfg.CanaryDen = 1, 4
	}
	if cfg.CanaryNum == 0 {
		cfg.CanaryNum = 1
	}
	if cfg.CanaryNum > cfg.CanaryDen {
		cfg.CanaryNum = cfg.CanaryDen
	}
	if cfg.Gates == nil {
		g := DefaultGates()
		cfg.Gates = &g
	}
}

// AdmitFunc is the admission seam: it receives the default per-site
// step budget, per-site overrides, and the combined worst-case hook
// loads of incumbents plus candidates (the trial-peak attachment). A
// *kernel.AdmissionError return is a permanent refusal; any other
// error is treated as transient and retried with backoff.
type AdmitFunc func(budget int, overrides map[string]int, loads []kernel.HookLoad) error

// RefusedError is returned by Begin when the scoped interference
// analysis finds warnings: the rollout is refused before anything
// loads (fail static).
type RefusedError struct {
	// Report is the scoped analysis report.
	Report *interfere.Report
	// Temporal is the model-checking report when the refusal came from
	// a declared temporal property (Config.Properties) instead of the
	// interference pass; nil otherwise.
	Temporal *modelcheck.Report
	// Scope names the guardrails that were re-analyzed.
	Scope []string
}

// Error summarizes the refusal.
func (e *RefusedError) Error() string {
	if e.Temporal != nil {
		return fmt.Sprintf("rollout: refused by temporal model checking (%s)", e.Temporal.Summary())
	}
	return fmt.Sprintf("rollout: refused by scoped interference analysis (%s; scope: %s)",
		e.Report.Summary(), strings.Join(e.Scope, ", "))
}

// ErrRolloutActive is returned by Begin while another rollout is in a
// non-terminal phase.
var ErrRolloutActive = errors.New("rollout: another rollout is in flight")

// ErrNoChanges is returned by Begin when the candidate generation is
// semantically identical to the incumbent one.
var ErrNoChanges = errors.New("rollout: candidate deployment is semantically identical to the incumbent generation")

// Record is one entry in the control plane's operation history.
type Record struct {
	// At is the simulated time of the transition.
	At kernel.Time `json:"at"`
	// Gen is the generation the entry concerns.
	Gen uint64 `json:"gen"`
	// Event names the transition: "refused", "phase:shadow",
	// "promoted", "rolled_back", "failed", "breakglass", ...
	Event string `json:"event"`
	// Note carries the reason or detail.
	Note string `json:"note,omitempty"`
}

// pair binds one candidate monitor to its incumbent (nil for an added
// guardrail) for the trial stages.
type pair struct {
	name  string            // base guardrail name
	vname string            // versioned trial name: name@v<gen>
	c     *compile.Compiled // candidate program under the base name
	cand  *monitor.Monitor
	inc   *monitor.Monitor
}

// rollout is one staged rollout's mutable state.
type rollout struct {
	gen        uint64
	cfg        Config
	cs         []*compile.Compiled
	diff       *Diff
	phase      Phase
	stageStart kernel.Time
	pairs      []pair
	removed    []string // incumbent names absent from the candidate set
	statsAt    map[string]monitor.Stats
	reason     string
}

// Controller is the fleet rollout control plane for one runtime.
type Controller struct {
	rt    *monitor.Runtime
	k     *kernel.Kernel
	admit AdmitFunc

	mu       sync.Mutex
	fleetGen uint64
	nextGen  uint64 // last assigned candidate generation; never reused
	lastGood []*compile.Compiled
	cur      *rollout
	history  []Record
}

// NewController returns a control plane over rt. The fleet generation
// starts at the kernel's current generation; call Adopt to register the
// already-loaded deployment as the last-good baseline.
func NewController(rt *monitor.Runtime) *Controller {
	k := rt.Kernel()
	c := &Controller{rt: rt, k: k, fleetGen: k.Generation(), nextGen: k.Generation()}
	c.admit = func(budget int, overrides map[string]int, loads []kernel.HookLoad) error {
		return k.AdmitDeployment(budget, overrides, loads)
	}
	return c
}

// SetAdmitFunc replaces the admission check — the seam chaos
// experiments use to inject transient admission failures. nil restores
// the kernel's admission test.
func (c *Controller) SetAdmitFunc(f AdmitFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f == nil {
		k := c.k
		f = func(budget int, overrides map[string]int, loads []kernel.HookLoad) error {
			return k.AdmitDeployment(budget, overrides, loads)
		}
	}
	c.admit = f
}

// Adopt registers cs — which the caller has already loaded into the
// runtime — as the last-good generation the next rollout diffs against
// and rolls back to.
func (c *Controller) Adopt(cs []*compile.Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastGood = append([]*compile.Compiled(nil), cs...)
}

// FleetGeneration returns the active fleet-wide generation.
func (c *Controller) FleetGeneration() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleetGen
}

// Phase returns the in-flight rollout's phase, or the terminal phase of
// the most recent one (PhaseIdle before any rollout).
func (c *Controller) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return PhaseIdle
	}
	return c.cur.phase
}

// Reason returns the gate/refusal reason of the most recent rollout
// ("" when none, or when it promoted).
func (c *Controller) Reason() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return ""
	}
	return c.cur.reason
}

// History returns a copy of the operation log.
func (c *Controller) History() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.history...)
}

// record appends a history entry; callers hold c.mu.
func (c *Controller) record(gen uint64, event, note string) {
	c.history = append(c.history, Record{At: c.k.Now(), Gen: gen, Event: event, Note: note})
}

// VersionedName renders the trial name a candidate loads under during
// shadow and canary stages. The versioned name doubles as the
// candidate's telemetry lane, so trial metrics never pollute the
// incumbent's series.
func VersionedName(name string, gen uint64) string {
	return fmt.Sprintf("%s@v%d", name, gen)
}

// BaseName strips a trial version suffix ("lat-guard@v3" → "lat-guard");
// names without one pass through. Only the exact "@v<digits>" shape
// VersionedName generates is treated as a suffix: a guardrail whose
// real name merely contains "@v" (say "svc@v2-guard") is not conflated
// with a trial lane.
func BaseName(name string) string {
	i := strings.LastIndex(name, "@v")
	if i <= 0 || i+2 == len(name) {
		return name
	}
	for _, r := range name[i+2:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// StrideGate returns a deterministic traffic-splitting act-gate
// admitting num of every den evaluations (indices n with n%den < num);
// invert selects the complement. A candidate and its incumbent attach
// to the same trigger stream, and Monitor.SetActGate restarts a
// monitor's evaluation index at zero: installing the pair's
// complementary gates in the same kernel step (as gateShadow does)
// aligns their indices, so exactly one of the two acts per firing.
func StrideGate(num, den uint64, invert bool) func(uint64) bool {
	if den == 0 {
		den = 1
	}
	if num > den {
		num = den
	}
	return func(n uint64) bool {
		act := n%den < num
		if invert {
			return !act
		}
		return act
	}
}

// neverAct suppresses every action: shadow-stage candidates evaluate
// (and count violations) but cannot touch the system.
func neverAct(uint64) bool { return false }

// Begin starts a staged rollout to the candidate generation cs.
//
// Synchronously it computes the semantic diff against the last-good
// generation, re-runs interference analysis on the changed scope, and
// refuses (*RefusedError, nothing loaded) on warnings. On success the
// admission check, shadow load, canary split, and gate checks run as
// kernel events; watch Phase or History for the outcome. A gate
// regression unloads every candidate and restores incumbent traffic —
// the fleet never sees a bad generation past its canary share.
func (c *Controller) Begin(cs []*compile.Compiled, cfg Config) error {
	cfg.fill()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil && !c.cur.phase.Terminal() {
		return ErrRolloutActive
	}
	// Candidate generations are never reused: a rolled-back generation
	// number stays burned, so telemetry lanes and history stay
	// unambiguous across retries of the same change.
	gen := c.nextGen + 1
	d := Compare(c.lastGood, cs)
	if d.Empty() {
		return ErrNoChanges
	}
	verdict, names := CheckScoped(d, &deploy.Deployment{
		Monitors:   cs,
		Features:   cfg.Features,
		Properties: cfg.Properties,
		HookBudget: cfg.HookBudget,
	})
	c.nextGen = gen
	// Declared temporal properties gate the whole candidate generation:
	// a retuned monitor that breaks an "assert always" (or introduces a
	// SAVE oscillation) is refused here, before shadow, like any other
	// fail-static condition. An interference warning is reported first;
	// RefusedError.Temporal is set only when the model checker alone
	// refused.
	if !verdict.Clean() {
		refused := &RefusedError{Report: verdict.Report, Scope: names}
		summary, reason := verdict.Report.Summary(), "scoped interference analysis: "
		if verdict.Report.Clean() {
			refused = &RefusedError{Temporal: verdict.Temporal, Scope: names}
			summary, reason = verdict.Temporal.Summary(), "temporal model checking: "
		}
		c.record(gen, "refused", summary)
		c.cur = &rollout{gen: gen, cfg: cfg, cs: cs, diff: d, phase: PhaseFailed, reason: reason + summary}
		return refused
	}

	st := &rollout{gen: gen, cfg: cfg, cs: cs, diff: d, phase: PhaseAdmitting}
	c.cur = st
	c.record(gen, "phase:admitting", d.Summary())
	c.rt.Telemetry().RolloutPhase(int64(c.k.Now()), gen, "admitting", d.Summary())
	c.k.After(0, func() { c.step(st, PhaseAdmitting, func() { c.admitStep(st, 0) }) })
	return nil
}

// step runs one async stage under the controller lock, skipping stale
// events (a later transition already moved the state machine) and
// failing static on panics: a control-plane bug must never take the
// incumbent generation down with it.
func (c *Controller) step(st *rollout, expect Phase, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != st || st.phase != expect {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.failStatic(st, fmt.Sprintf("control plane panic: %v", r))
		}
	}()
	fn()
}

// admitStep runs the admission check, retrying transient failures with
// exponential backoff. Callers hold c.mu via step.
func (c *Controller) admitStep(st *rollout, attempt int) {
	combined := append(append([]*compile.Compiled(nil), c.lastGood...), st.cs...)
	err := c.admit(st.cfg.HookBudget, nil, monitor.HookLoads(combined))
	if err == nil {
		c.loadShadow(st)
		return
	}
	var adm *kernel.AdmissionError
	if errors.As(err, &adm) {
		c.failStatic(st, "admission rejected: "+err.Error())
		return
	}
	if attempt >= admitRetries {
		c.failStatic(st, fmt.Sprintf("admission failed after %d retries: %v", attempt, err))
		return
	}
	c.rt.Telemetry().AdmitRetry(int64(c.k.Now()), st.gen, attempt+1, err.Error())
	c.record(st.gen, "admit_retry", err.Error())
	backoff := admitBackoff << uint(attempt)
	c.k.After(backoff, func() { c.step(st, PhaseAdmitting, func() { c.admitStep(st, attempt+1) }) })
}

// loadShadow loads every candidate under its versioned trial name with
// all actions gated off, then schedules the shadow gate check. Callers
// hold c.mu.
func (c *Controller) loadShadow(st *rollout) {
	incumbent := map[string]bool{}
	for _, old := range c.lastGood {
		incumbent[old.Name] = true
	}
	for _, cc := range st.cs {
		ch := st.diff.Change(cc.Name)
		if ch.Kind == Unchanged {
			continue
		}
		clone := *cc
		clone.Name = VersionedName(cc.Name, st.gen)
		m, err := c.rt.Load(&clone, monitor.Options{})
		if err != nil {
			c.unloadCandidates(st)
			c.failStatic(st, fmt.Sprintf("loading candidate %s: %v", clone.Name, err))
			return
		}
		m.SetActGate(neverAct)
		p := pair{name: cc.Name, vname: clone.Name, c: cc, cand: m}
		if incumbent[cc.Name] {
			p.inc = c.rt.Monitor(cc.Name)
		}
		st.pairs = append(st.pairs, p)
	}
	for _, ch := range st.diff.Changes {
		if ch.Kind == Removed {
			st.removed = append(st.removed, ch.Name)
		}
	}
	st.phase = PhaseShadow
	st.stageStart = c.k.Now()
	st.statsAt = c.snapshot(st)
	c.record(st.gen, "phase:shadow", fmt.Sprintf("%d candidate(s) evaluating, actions suppressed", len(st.pairs)))
	c.rt.Telemetry().RolloutPhase(int64(c.k.Now()), st.gen, "shadow", "")
	c.k.After(st.cfg.ShadowWindow, func() { c.step(st, PhaseShadow, func() { c.gateShadow(st) }) })
}

// gateShadow checks the shadow window and either starts the canary or
// rolls back. Callers hold c.mu.
func (c *Controller) gateShadow(st *rollout) {
	if reason := c.gateCheck(st, "shadow"); reason != "" {
		c.rollback(st, reason)
		return
	}
	for _, p := range st.pairs {
		p.cand.SetActGate(StrideGate(st.cfg.CanaryNum, st.cfg.CanaryDen, false))
		if p.inc != nil {
			p.inc.SetActGate(StrideGate(st.cfg.CanaryNum, st.cfg.CanaryDen, true))
		}
	}
	st.phase = PhaseCanary
	st.stageStart = c.k.Now()
	st.statsAt = c.snapshot(st)
	c.record(st.gen, "phase:canary", fmt.Sprintf("%d/%d of action traffic", st.cfg.CanaryNum, st.cfg.CanaryDen))
	c.rt.Telemetry().RolloutPhase(int64(c.k.Now()), st.gen, "canary",
		fmt.Sprintf("%d/%d", st.cfg.CanaryNum, st.cfg.CanaryDen))
	c.k.After(st.cfg.CanaryWindow, func() { c.step(st, PhaseCanary, func() { c.gateCanary(st) }) })
}

// gateCanary checks the canary window and promotes or rolls back.
// Callers hold c.mu.
func (c *Controller) gateCanary(st *rollout) {
	if reason := c.gateCheck(st, "canary"); reason != "" {
		c.rollback(st, reason)
		return
	}
	c.promote(st)
}

// snapshot captures candidate and incumbent counters at a stage start,
// the gate fallback when no flight recorder covers the window.
func (c *Controller) snapshot(st *rollout) map[string]monitor.Stats {
	snap := map[string]monitor.Stats{}
	for _, p := range st.pairs {
		snap[p.vname] = p.cand.Stats()
		if p.inc != nil {
			snap[p.name] = p.inc.Stats()
		}
	}
	return snap
}

// gateCheck scores the current stage window against the gates,
// returning the failure reason or "". Callers hold c.mu.
func (c *Controller) gateCheck(st *rollout, stage string) string {
	lanes, ok, truncated := windowLanes(c.rt.Telemetry(), int64(st.stageStart))
	source := "flight"
	if !ok {
		source = "stats"
		if truncated {
			// The flight ring wrapped past the stage start: the gate is
			// scoring coarser monitor-stats deltas. Surface that in the
			// rollout history so a later reader of a pass/fail verdict
			// knows which evidence produced it.
			c.record(st.gen, "gate_window_fallback",
				fmt.Sprintf("%s gate: flight window truncated, scoring monitor-stats deltas", stage))
		}
	}
	prov := c.rt.Provenance()
	failed := ""
	for _, p := range st.pairs {
		var cand, inc lane
		if ok {
			cand, inc = lanes[p.vname], lanes[p.name]
		} else {
			cand = statsLane(p.cand.Stats(), st.statsAt[p.vname])
			if p.inc != nil {
				inc = statsLane(p.inc.Stats(), st.statsAt[p.name])
			}
		}
		reason := st.cfg.Gates.check(stage, p.vname, cand, inc, p.inc != nil)
		if prov != nil {
			rec := provenance.Record{
				Kind: provenance.KindGate, At: int64(c.k.Now()),
				Monitor: p.vname, Gen: int(st.gen),
				Stage: stage, GateReason: reason, GateSource: source,
				Cand: window(cand), Inc: window(inc),
			}
			prov.Commit(&rec)
		}
		if reason != "" && failed == "" {
			failed = reason
		}
	}
	return failed
}

// window converts a gate lane to its provenance wire form.
func window(l lane) provenance.Window {
	return provenance.Window{
		Evals: l.Evals, Violations: l.Violations, Faults: l.Faults,
		Dispatches: l.Dispatches, Failures: l.Failures, Steps: l.Steps,
	}
}

// unloadCandidates removes every trial monitor and restores incumbent
// act-gates. Callers hold c.mu.
func (c *Controller) unloadCandidates(st *rollout) {
	for _, p := range st.pairs {
		_ = c.rt.Unload(p.vname)
		if p.inc != nil {
			p.inc.SetActGate(nil)
		}
	}
}

// rollback aborts the rollout after exposure: candidates unload,
// incumbents take back full traffic, and the fleet stays on the
// last-good generation. Callers hold c.mu.
func (c *Controller) rollback(st *rollout, reason string) {
	c.unloadCandidates(st)
	st.phase = PhaseRolledBack
	st.reason = reason
	c.record(st.gen, "rolled_back", reason)
	c.rt.Telemetry().Rollback(int64(c.k.Now()), c.fleetGen, reason)
	if prov := c.rt.Provenance(); prov != nil {
		rec := provenance.Record{
			Kind: provenance.KindRollback, At: int64(c.k.Now()),
			Monitor: "rollout", Gen: int(st.gen), Reason: reason,
		}
		prov.Commit(&rec)
	}
	c.rt.Log.Append(actions.Violation{
		Time: c.k.Now(), Guardrail: "rollout",
		Note: fmt.Sprintf("gen %d rolled back to gen %d: %s", st.gen, c.fleetGen, reason),
	})
}

// failStatic aborts a rollout that never reached exposure (refused
// admission, load failure, control-plane panic): nothing of the
// candidate generation stays attached and the incumbent generation
// keeps running untouched. Callers hold c.mu.
func (c *Controller) failStatic(st *rollout, reason string) {
	c.unloadCandidates(st)
	st.phase = PhaseFailed
	st.reason = reason
	c.record(st.gen, "failed", reason)
	c.rt.Telemetry().RolloutPhase(int64(c.k.Now()), st.gen, "failed", reason)
	c.rt.Log.Append(actions.Violation{
		Time: c.k.Now(), Guardrail: "rollout",
		Note: fmt.Sprintf("gen %d failed static: %s", st.gen, reason),
	})
}

// promote takes the candidate generation fleet-wide: updated guardrails
// hot-swap under their real names (telemetry lanes and counters
// continue), added ones load fresh, removed ones unload, and the fleet
// generation advances. A failure mid-promote reverts the already-
// swapped guardrails and rolls back. Callers hold c.mu.
func (c *Controller) promote(st *rollout) {
	oldBy := map[string]*compile.Compiled{}
	for _, old := range c.lastGood {
		oldBy[old.Name] = old
	}
	var swapped []*compile.Compiled // old versions to restore on mid-promote failure
	var added []string
	revert := func(failure string) {
		for _, old := range swapped {
			if _, err := c.rt.Update(old, monitor.Options{}); err == nil {
				if m := c.rt.Monitor(old.Name); m != nil {
					m.SetActGate(nil)
				}
			}
		}
		for _, name := range added {
			_ = c.rt.Unload(name)
		}
		c.rollback(st, failure)
	}
	for _, p := range st.pairs {
		if p.inc != nil {
			m, err := c.rt.Update(p.c, monitor.Options{})
			if err != nil {
				revert(fmt.Sprintf("promoting %s: %v", p.name, err))
				return
			}
			m.SetActGate(nil)
			swapped = append(swapped, oldBy[p.name])
			_ = c.rt.Unload(p.vname)
			continue
		}
		// Added guardrail: retire the trial copy, load under the real
		// name.
		_ = c.rt.Unload(p.vname)
		m, err := c.rt.Load(p.c, monitor.Options{})
		if err != nil {
			revert(fmt.Sprintf("promoting added %s: %v", p.name, err))
			return
		}
		m.SetActGate(nil)
		added = append(added, p.name)
	}
	for _, name := range st.removed {
		_ = c.rt.Unload(name)
	}
	c.fleetGen = st.gen
	c.k.SetGeneration(st.gen)
	c.lastGood = append([]*compile.Compiled(nil), st.cs...)
	st.phase = PhasePromoted
	c.record(st.gen, "promoted", st.diff.Summary())
	c.rt.Telemetry().Promotion(int64(c.k.Now()), st.gen)
}

// Breakglass quarantines a guardrail fleet-wide in one call: the named
// monitor and any in-flight trial copies (name@v<gen>) are forced to
// shadow (disable=false: still evaluating, never acting) or disabled
// outright (disable=true: not even evaluating). The engagement is
// counted, flight-recorded, and written to the report log. It survives
// promotions of the in-flight rollout for monitors that existed when it
// engaged (Runtime.Update carries quarantine state to the replacement);
// a guardrail *added* by a later promotion was never quarantined and
// loads live. Release with BreakglassRelease.
func (c *Controller) Breakglass(name string, disable bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakglass(name, disable, true)
}

// BreakglassRelease lifts a breakglass quarantine, restoring the named
// guardrail (and trial copies) to normal operation.
func (c *Controller) BreakglassRelease(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakglass(name, false, false)
}

// breakglass applies or lifts the quarantine; callers hold c.mu.
func (c *Controller) breakglass(name string, disable, engage bool) error {
	var hit []*monitor.Monitor
	for _, m := range c.rt.Monitors() {
		if BaseName(m.Name()) == name {
			hit = append(hit, m)
		}
	}
	if len(hit) == 0 {
		return fmt.Errorf("rollout: breakglass: no loaded monitor matches %q", name)
	}
	mode := "shadow"
	if disable {
		mode = "disable"
	}
	for _, m := range hit {
		if engage {
			if disable {
				m.SetEnabled(false)
			} else {
				m.ForceShadow(true)
			}
		} else {
			m.SetEnabled(true)
			m.ForceShadow(false)
		}
	}
	event, note := "breakglass", fmt.Sprintf("%s: %d monitor(s) forced to %s", name, len(hit), mode)
	if !engage {
		event, note = "breakglass_release", fmt.Sprintf("%s: %d monitor(s) restored", name, len(hit))
	}
	c.record(c.fleetGen, event, note)
	c.rt.Telemetry().BreakglassEvent(int64(c.k.Now()), name, mode, engage)
	c.rt.Log.Append(actions.Violation{Time: c.k.Now(), Guardrail: name, Note: event + ": " + note})
	return nil
}
