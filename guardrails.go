// Package guardrails is an open-source implementation of "How I learned
// to stop worrying and love learned OS policies" (HotOS '25): a
// framework that lets kernel developers declaratively specify
// system-level properties over learned OS policies and corrective
// actions to take when a property is violated, and compiles those
// guardrails into verified monitors that run inside the kernel.
//
// A guardrail pairs triggers (when to check) and rules (numeric
// predicates over a global feature store, read with LOAD(key)) with
// actions (REPORT, REPLACE, RETRAIN, DEPRIORITIZE, SAVE); see README.md
// for the language. LoadGuardrails parses, checks, compiles and
// verifies the text, then arms each monitor in a Runtime that binds
// TIMER triggers to kernel timers and FUNCTION triggers to kprobe-style
// hook sites:
//
//	sys := guardrails.NewSystem()
//	sys.Store.Save("false_submit_rate", 0.01)
//	mons, err := sys.LoadGuardrails(spec, guardrails.Options{})
//	...
//	sys.Kernel.RunUntil(10 * guardrails.Second) // simulated kernel
//
// This package is what the examples and cmd/grailvm build on. The
// deployment checker, compiler, rollout control plane and experiments
// are commands (cmd/grailcheck, cmd/grailc, cmd/grailctl,
// cmd/guardrail-bench) over the internal packages; see DESIGN.md and
// EXPERIMENTS.md.
package guardrails

import (
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
)

// Re-exported types: what System's fields and methods hand out, and
// the load options. The aliases make the internal implementations
// nameable from outside the module.
type (
	// Kernel is the deterministic discrete-event simulated kernel that
	// hosts hook points and timers.
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
	// fault handling).
	Options = monitor.Options
	// Telemetry is the kernel-wide observability plane: counters,
	// latency histograms, and a flight-recorder event ring. A nil
	// *Telemetry is the disabled plane (zero overhead); attach one with
	// System.AttachTelemetry.
	Telemetry = telemetry.Sink
	// Provenance is the decision-record plane: a bounded ring of
	// per-fire "why" records (feature values LOADed, VM branch path,
	// actions emitted or suppressed, rollout gate verdicts). A nil
	// *Provenance is the disabled plane; attach one with
	// System.AttachProvenance.
	Provenance = provenance.Recorder
	// OpsServer is a live ops endpoint bound to a listener.
	OpsServer = telemetry.OpsServer
)

// Simulated-time units.
const (
	Millisecond = kernel.Millisecond
	Second      = kernel.Second
)

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

// AttachTelemetry builds a telemetry sink whose flight recorder retains
// eventCap events, binds its clock to the system's simulated kernel,
// and wires it into the kernel's hook dispatch, the monitor runtime,
// and the feature store. Returns the sink for export (WriteJSON /
// WritePrometheus / WriteTrace).
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
// are attached at request time. The planes belong to the goroutine that
// runs the kernel, so start serving once the run has finished.
func (s *System) ServeOps(addr string) (*OpsServer, error) {
	return telemetry.ServeOps(addr, telemetry.OpsConfig{
		Sink: func() *telemetry.Sink { return s.Telemetry() },
		Why: func(name string, n int) (any, error) {
			return provenance.Views(s.Provenance().ForMonitor(name, n)), nil
		},
	})
}
