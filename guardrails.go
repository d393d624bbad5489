// Package guardrails is an open-source implementation of "How I learned
// to stop worrying and love learned OS policies" (HotOS '25): a
// framework that lets kernel developers declaratively specify
// system-level properties over learned OS policies and corrective
// actions to take when a property is violated, and compiles those
// guardrails into verified monitors that run inside the kernel.
//
// # The abstraction
//
// A guardrail is a property (triggers saying when to check + rules
// saying what must hold) paired with one or more actions (Listing 1 of
// the paper):
//
//	guardrail low-false-submit {
//	    trigger: {
//	        TIMER(start_time, 1e9) // Periodically check every 1s.
//	    },
//	    rule: {
//	        LOAD(false_submit_rate) <= 0.05
//	    },
//	    action: {
//	        SAVE(ml_enabled, false)
//	    }
//	}
//
// Rules are numeric predicates over a global feature store accessed
// with LOAD(key); subsystems and learned policies publish their signals
// with SAVE(key, value). Actions cover the paper's taxonomy: REPORT
// (log context), REPLACE (swap a misbehaving policy for a fallback),
// RETRAIN (queue rate-limited retraining), DEPRIORITIZE (demote or kill
// a task group), plus SAVE for control knobs.
//
// # The pipeline
//
// Specification text is parsed and checked (ParseSpec), compiled to a
// register bytecode program (CompileSpec), statically verified for
// in-kernel safety — loop freedom, bounded length, initialized
// registers, bounds-checked cell accesses (Verify) — and loaded into a
// Runtime that binds TIMER triggers to kernel timers and FUNCTION
// triggers to kprobe-style hook sites.
//
// # Quick start
//
//	sys := guardrails.NewSystem()
//	sys.Store.Save("false_submit_rate", 0.01)
//	mons, err := sys.LoadGuardrails(spec, guardrails.Options{})
//	...
//	sys.Kernel.RunUntil(10 * guardrails.Second) // simulated kernel
//
// This repository ships a deterministic simulated kernel plus substrate
// simulators (flash storage with a LinnOS-style latency predictor, a CPU
// scheduler, tiered memory, cache replacement, congestion control) that
// reproduce the paper's Figure 2 and instantiate every row of its
// property/action taxonomy; see DESIGN.md and EXPERIMENTS.md.
package guardrails

import (
	"guardrails/internal/actions"
	"guardrails/internal/compile"
	"guardrails/internal/faults"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/rollout"
	"guardrails/internal/spec"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// Re-exported core types. The type aliases make the internal
// implementations part of the public API surface.
type (
	// Kernel is the deterministic discrete-event simulated kernel that
	// hosts hook points, timers, and tasks.
	Kernel = kernel.Kernel
	// Time is simulated time in nanoseconds.
	Time = kernel.Time
	// Store is the global feature store (SAVE/LOAD surface, §4.3).
	Store = featurestore.Store
	// Runtime hosts loaded guardrail monitors and the action machinery.
	Runtime = monitor.Runtime
	// Monitor is one loaded guardrail.
	Monitor = monitor.Monitor
	// Options tune monitor loading (hysteresis, dependency triggers,
	// result publication).
	Options = monitor.Options
	// MonitorStats summarizes a monitor's activity.
	MonitorStats = monitor.Stats
	// Guardrail is a parsed guardrail specification.
	Guardrail = spec.Guardrail
	// File is a parsed specification source.
	File = spec.File
	// Compiled is a guardrail lowered to a verified monitor program.
	Compiled = compile.Compiled
	// Program is a monitor VM program.
	Program = vm.Program
	// Violation is one recorded property violation (REPORT output).
	Violation = actions.Violation
	// Recorder is the feature-store flight recorder whose snapshot is
	// attached to violations (Options.Recorder).
	Recorder = featurestore.Recorder
	// Write is one recorded feature-store write.
	Write = featurestore.Write
	// ReportLog is the bounded violation log.
	ReportLog = actions.ReportLog
	// PolicyRegistry backs the REPLACE action.
	PolicyRegistry = actions.Registry
	// Retrainer backs the RETRAIN action.
	Retrainer = actions.Retrainer
	// Deprioritizer backs the DEPRIORITIZE action.
	Deprioritizer = actions.Deprioritizer
	// MonitorState is a monitor's position on the degradation ladder
	// (active → shadow → quarantined).
	MonitorState = monitor.State
	// FaultPolicy selects a guardrail's failure semantics when its
	// circuit breaker quarantines it (Options.OnFault).
	FaultPolicy = monitor.FaultPolicy
	// FaultInjector intercepts monitor operations for fault injection;
	// FaultInjectorImpl (faults.Injector) is the standard implementation.
	FaultInjector = monitor.FaultInjector
	// FailedAction is one permanently failed action dispatch.
	FailedAction = actions.FailedAction
	// DeadLetter is the bounded ring of actions that exhausted their
	// retries (Runtime.DeadLetter).
	DeadLetter = actions.DeadLetter
	// FaultKind classifies an injectable fault.
	FaultKind = faults.Kind
	// FaultRule schedules one class of injected faults.
	FaultRule = faults.Rule
	// FaultPlan is a seeded set of fault rules armed against a system.
	FaultPlan = faults.Plan
	// FaultInjectorImpl is the deterministic seeded injector that
	// implements FaultInjector.
	FaultInjectorImpl = faults.Injector
	// Injection is one delivered fault, for auditing.
	Injection = faults.Injection
	// Telemetry is the kernel-wide observability plane: counters,
	// latency histograms, and a flight-recorder event ring. A nil
	// *Telemetry is the disabled plane (zero overhead); attach one with
	// System.AttachTelemetry.
	Telemetry = telemetry.Sink
	// TelemetrySnapshot is a point-in-time, diffable export of a
	// telemetry sink.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryEvent is one flight-recorder event.
	TelemetryEvent = telemetry.Event
	// FlightRecorder is the bounded event ring inside a telemetry sink.
	FlightRecorder = telemetry.Flight
	// Provenance is the decision-record plane: a bounded ring of
	// per-fire "why" records (feature values LOADed, VM branch path,
	// actions emitted or suppressed, rollout gate verdicts). A nil
	// *Provenance is the disabled plane; attach one with
	// System.AttachProvenance.
	Provenance = provenance.Recorder
	// ProvenanceRecord is one decision record.
	ProvenanceRecord = provenance.Record
	// ProvenanceRecordJSON is the wire form served by /why and decoded
	// by grailctl explain.
	ProvenanceRecordJSON = provenance.RecordJSON
	// OpsConfig wires the live ops HTTP endpoint (System.ServeOps).
	OpsConfig = telemetry.OpsConfig
	// OpsServer is a live ops endpoint bound to a listener.
	OpsServer = telemetry.OpsServer
	// Deployment is the whole-deployment interference analyzer's input:
	// the compiled guardrails that will run together plus declared
	// feature ranges and hook budgets.
	Deployment = interfere.Deployment
	// DeploymentReport is the analyzer's output: GI-coded diagnostics
	// plus the per-hook-site worst-case load table.
	DeploymentReport = interfere.Report
	// DeploymentDiagnostic is one deployment-level finding (GI001…).
	DeploymentDiagnostic = interfere.Diagnostic
	// PropertyDecl is a declared temporal property: "assert always
	// <pred>" or "assert eventually <pred> within K".
	PropertyDecl = spec.PropertyDecl
	// TemporalConfig parameterizes the bounded temporal model checker
	// (properties, exploration bounds, witness synthesis).
	TemporalConfig = modelcheck.Config
	// TemporalReport is the model checker's output: per-property
	// PROVED/REFUTED/INCONCLUSIVE verdicts with certificates, plus
	// GM-coded diagnostics carrying multi-step abstract traces.
	TemporalReport = modelcheck.Report
	// TemporalPropertyResult is one declared property's verdict.
	TemporalPropertyResult = modelcheck.PropertyResult
	// DeployConfig parameterizes System.LoadDeployment.
	DeployConfig = monitor.DeployConfig
	// DeployResult reports what LoadDeployment loaded, shadowed,
	// disabled, or skipped.
	DeployResult = monitor.DeployResult
	// DeployError is LoadDeployment's refusal under DeployEnforce.
	DeployError = monitor.DeployError
	// DuplicateLoadError is the GI007-coded duplicate-load refusal.
	DuplicateLoadError = monitor.DuplicateLoadError
	// FeatureDecl is a declared feature range (feature k range(lo, hi)).
	FeatureDecl = spec.FeatureDecl
	// AdmissionError is the kernel's aggregate-budget refusal.
	AdmissionError = kernel.AdmissionError
	// HookLoad is one monitor's intended hook attachment with its
	// certified cost, the kernel admission test's input.
	HookLoad = kernel.HookLoad
	// RolloutController stages candidate deployments through
	// shadow → canary → fleet-wide with telemetry-gated promotion,
	// auto-rollback to the last good generation, and breakglass
	// quarantine (see internal/rollout and cmd/grailctl).
	RolloutController = rollout.Controller
	// RolloutConfig parameterizes one staged rollout (windows, canary
	// share, gates, admission retry policy).
	RolloutConfig = rollout.Config
	// RolloutGates are the telemetry thresholds a candidate must clear
	// at each stage boundary.
	RolloutGates = rollout.Gates
	// RolloutPhase is the rollout state machine's position.
	RolloutPhase = rollout.Phase
	// RolloutRecord is one timestamped rollout history event.
	RolloutRecord = rollout.Record
	// RolloutRefusedError is Begin's synchronous refusal when the scoped
	// interference re-analysis finds warnings in the changed slice.
	RolloutRefusedError = rollout.RefusedError
	// DeploymentDiff is the semantic diff between two compiled
	// generations (added/removed/retuned/modified guardrails).
	DeploymentDiff = rollout.Diff
	// DeploymentChange is one guardrail's classified change.
	DeploymentChange = rollout.Change
)

// Deployment analysis policies (DeployConfig.Policy).
const (
	// DeployEnforce refuses the whole deployment on any interference
	// warning.
	DeployEnforce = monitor.DeployEnforce
	// DeployWarn loads the deployment but quarantines implicated
	// monitors (shadow mode, or disabled for over-budget hooks).
	DeployWarn = monitor.DeployWarn
)

// Rollout state-machine phases (RolloutController.Phase).
const (
	RolloutIdle       = rollout.PhaseIdle
	RolloutAdmitting  = rollout.PhaseAdmitting
	RolloutShadow     = rollout.PhaseShadow
	RolloutCanary     = rollout.PhaseCanary
	RolloutPromoted   = rollout.PhasePromoted
	RolloutRolledBack = rollout.PhaseRolledBack
	RolloutFailed     = rollout.PhaseFailed
)

// Simulated-time units.
const (
	Microsecond = kernel.Microsecond
	Millisecond = kernel.Millisecond
	Second      = kernel.Second
)

// Monitor degradation-ladder states.
const (
	StateActive      = monitor.StateActive
	StateShadow      = monitor.StateShadow
	StateQuarantined = monitor.StateQuarantined
)

// Fault policies for quarantined guardrails: FailOpen leaves the
// guarded system running unguarded; FailClosed forces the safe
// configuration (Options.Fallback, or the guardrail's own actions)
// before standing down.
const (
	FailOpen   = monitor.FailOpen
	FailClosed = monitor.FailClosed
)

// Injectable fault kinds (see internal/faults and DESIGN.md's "Fault
// model & degradation ladder").
const (
	FaultEvalTrap    = faults.EvalTrap
	FaultHelperFail  = faults.HelperFail
	FaultLoadNaN     = faults.LoadNaN
	FaultLoadStale   = faults.LoadStale
	FaultActionFail  = faults.ActionFail
	FaultReplicaFail = faults.ReplicaFail
	FaultReplicaHeal = faults.ReplicaHeal
)

// NewFaultInjector returns a deterministic seeded fault injector whose
// time windows are evaluated against the system's simulated clock.
// Install it with Runtime.SetFaultInjector.
func (s *System) NewFaultInjector(seed int64) *FaultInjectorImpl {
	return faults.NewInjector(seed, s.Kernel.Now)
}

// InjectFaults arms a fault plan against the system: monitor-facing
// rules are served by the returned injector (installed on the
// runtime), and replica fail/heal rules are scheduled on the kernel
// clock against the given arrays.
func (s *System) InjectFaults(p *FaultPlan, arrays ...faults.Target) *FaultInjectorImpl {
	inj := p.Arm(s.Kernel, arrays...)
	s.Runtime.SetFaultInjector(inj)
	return inj
}

// StandardChaos is the chaos experiment's standard fault plan: an
// eval-trap burst, a NaN window on the false-submit signal, a retrain
// outage, and a replica loss/heal cycle.
func StandardChaos(seed int64) *FaultPlan {
	return faults.StandardChaos(seed)
}

// NewRecorder returns a feature-store flight recorder retaining the
// most recent capacity writes. Attach it with Store.AttachRecorder and
// set Options.Recorder: every violation report's Context then carries
// the writes that led up to it — the paper's A1, "log which inputs
// triggered the violation". A zero Recorder has no ring to record into.
func NewRecorder(capacity int) *Recorder { return featurestore.NewRecorder(capacity) }

// System bundles a kernel, a feature store, and a guardrail runtime —
// everything needed to run guarded learned policies.
type System struct {
	Kernel  *Kernel
	Store   *Store
	Runtime *Runtime
}

// NewSystem returns a fresh simulated system with an empty feature
// store and no loaded guardrails.
func NewSystem() *System {
	k := kernel.New()
	st := featurestore.New()
	return &System{Kernel: k, Store: st, Runtime: monitor.New(k, st)}
}

// LoadGuardrails parses, checks, compiles, verifies, and arms every
// guardrail in src.
func (s *System) LoadGuardrails(src string, opts Options) ([]*Monitor, error) {
	return s.Runtime.LoadSource(src, opts)
}

// AnalyzeDeployment runs the whole-deployment interference analysis on
// specification text without loading anything: cross-guardrail action
// conflicts, SAVE→LOAD feedback cycles, aggregate hook budgets, and
// dead guardrails, reported as stable GI-coded diagnostics. Declared
// feature ranges in src refine the analysis. This is the library
// surface behind cmd/grailcheck.
func AnalyzeDeployment(src string, hookBudget int, hookBudgets map[string]int) (*DeploymentReport, error) {
	d, err := deploy.Load(deploy.Source{Text: src})
	if err != nil {
		return nil, err
	}
	d.HookBudget, d.HookBudgets = hookBudget, hookBudgets
	return d.Check(deploy.Checks{}).Report, nil
}

// ModelCheckDeployment parses and compiles src, then model-checks the
// deployment's declared "assert" property blocks plus any extra
// manifest-style properties ("always LOAD(k) <= 1", "eventually
// LOAD(k) == 1 within 4") over one timer hyperperiod of abstract
// execution. This is the library surface behind grailcheck -check.
func ModelCheckDeployment(src string, extra ...string) (*TemporalReport, error) {
	d, err := deploy.Load(deploy.Source{Text: src})
	if err != nil {
		return nil, err
	}
	props, err := deploy.ParseProperties(extra)
	if err != nil {
		return nil, err
	}
	d.Properties = append(d.Properties, props...)
	return d.Check(deploy.Checks{Sweep: true, Witness: true}).Temporal, nil
}

// LoadDeployment parses, compiles, and loads every guardrail in src as
// one deployment: the deployment checks and the kernel's
// aggregate-budget admission test run before anything arms, so a
// conflicting deployment is refused atomically (DeployEnforce) or
// loaded with the implicated monitors quarantined (DeployWarn).
// Declared feature ranges in src feed the analysis, and its "assert"
// blocks are admission conditions like any cfg.Properties.
func (s *System) LoadDeployment(src string, cfg DeployConfig) (*DeployResult, error) {
	d, err := deploy.Load(deploy.Source{Text: src})
	if err != nil {
		return nil, err
	}
	cfg.Features = append(cfg.Features, d.Features...)
	cfg.Properties = append(cfg.Properties, d.Properties...)
	return s.Runtime.LoadDeployment(d.Monitors, cfg)
}

// AttachTelemetry builds a telemetry sink whose flight recorder retains
// eventCap events, binds its clock to the system's simulated kernel,
// and wires it into the kernel's hook dispatch, the monitor runtime,
// and the feature store. Storage devices and arrays are wired
// separately (Device.SetTelemetry / Array.SetTelemetry) since the
// System does not own them. Returns the sink for export
// (WriteJSON / WritePrometheus / WriteTrace).
func (s *System) AttachTelemetry(eventCap int) *Telemetry {
	sink := telemetry.New(func() telemetry.Time { return int64(s.Kernel.Now()) }, eventCap)
	s.Kernel.SetTelemetry(sink)
	s.Store.SetTelemetry(sink)
	s.Runtime.SetTelemetry(sink)
	return sink
}

// Telemetry returns the sink attached to the system's runtime, or nil.
func (s *System) Telemetry() *Telemetry { return s.Runtime.Telemetry() }

// AttachProvenance builds a decision-record recorder retaining the
// last recordCap records, sampling 1 in healthyEvery healthy
// evaluations per monitor (violations, faults, rollout gates, and
// rollbacks are always recorded; healthyEvery <= 0 drops all healthy
// fires), and attaches it to the runtime. Returns the recorder for
// export.
func (s *System) AttachProvenance(recordCap, healthyEvery int) *Provenance {
	rec := provenance.New(recordCap, healthyEvery)
	s.Runtime.SetProvenance(rec)
	return rec
}

// Provenance returns the attached decision recorder, or nil (the
// disabled plane).
func (s *System) Provenance() *Provenance { return s.Runtime.Provenance() }

// ServeOps starts the live ops HTTP endpoint on addr (":9090",
// "127.0.0.1:0", ...): /metrics (Prometheus), /snapshot.json,
// /flight, /why?monitor=<name>[&n=N] (decision provenance), and
// /healthz. It serves whatever telemetry sink and provenance recorder
// are attached at request time.
func (s *System) ServeOps(addr string) (*OpsServer, error) {
	return telemetry.ServeOps(addr, OpsConfig{
		Sink: func() *telemetry.Sink { return s.Telemetry() },
		Why: func(name string, n int) (any, error) {
			return provenance.Views(s.Provenance().ForMonitor(name, n)), nil
		},
	})
}

// NewRolloutController returns a fleet rollout controller over the
// system's runtime: Begin stages a candidate deployment through
// shadow → canary → fleet-wide on the simulated clock, gating each
// promotion on telemetry deltas and rolling back to the incumbent
// generation on regression; Breakglass quarantines a named guardrail
// fleet-wide in one call.
func (s *System) NewRolloutController() *RolloutController {
	return rollout.NewController(s.Runtime)
}

// CompareDeployments computes the semantic diff between two compiled
// deployment generations: which guardrails were added, removed, retuned
// (same structure, different thresholds), or structurally modified,
// with per-threshold deltas in the change details.
func CompareDeployments(old, new []*Compiled) *DeploymentDiff {
	return rollout.Compare(old, new)
}

// ParseSpec parses and semantically checks guardrail specification text.
func ParseSpec(src string) (*File, error) { return spec.ParseChecked(src) }

// CompileSpec parses, checks, compiles, and verifies guardrail
// specification text, returning one monitor image per guardrail.
func CompileSpec(src string) ([]*Compiled, error) {
	return compile.Source(src)
}

// Verify statically checks a monitor program for in-kernel safety; it
// is run automatically by CompileSpec and at load time. On success the
// program's Meta carries the verifier proof (certified worst-case step
// bound, trap-freedom, proven-nonzero divisors) and the interpreter
// runs it without per-step runtime guards.
func Verify(p *Program) error {
	return vm.Verify(p, vm.NumBuiltinHelpers)
}

// VerifySteps verifies p and additionally rejects it when the certified
// worst-case step count exceeds maxSteps — a load-time admission test
// for hook sites with a hard per-evaluation budget.
func VerifySteps(p *Program, maxSteps int) error {
	return vm.VerifySteps(p, vm.NumBuiltinHelpers, maxSteps)
}
