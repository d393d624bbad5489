// Package monitor is the guardrail runtime: it loads compiled guardrail
// monitors (package compile) into the simulated kernel, binds their
// TIMER and FUNCTION triggers to kernel timers and hook sites, executes
// the monitor programs in the VM at each trigger, and dispatches
// corrective actions (package actions) on property violations.
//
// The runtime implements the paper's deployment story (§3.3):
// incremental deployment (monitors can be loaded and unloaded at
// runtime without a "reboot"), per-monitor overhead accounting, and two
// mitigations for the discussion-section failure modes (§6): anti-flap
// hysteresis (an action fires only after K consecutive violations) and
// dependency-triggered evaluation (re-check a property only when a
// feature-store key it reads changes, instead of on a timer).
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"guardrails/internal/actions"
	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// Runtime hosts loaded guardrail monitors and the shared action
// machinery.
type Runtime struct {
	k     *kernel.Kernel
	store *featurestore.Store

	// Log receives REPORT violations (and dispatch errors, monitor
	// faults, and degradation-ladder transitions, with Note).
	Log *actions.ReportLog
	// Policies backs REPLACE.
	Policies *actions.Registry
	// Retrainer backs RETRAIN.
	Retrainer *actions.Retrainer
	// DeadLetter counts actions that exhausted their retries.
	DeadLetter *actions.DeadLetter

	faultInj atomic.Pointer[injBox]
	tsink    atomic.Pointer[telemetry.Sink]
	prov     atomic.Pointer[provenance.Recorder]

	mu       sync.Mutex
	monitors map[string]*Monitor
}

// injBox holds an interface value behind the one pointer an atomic
// store can publish.
type injBox struct{ fi FaultInjector }

// SetFaultInjector installs (or, with nil, removes) the fault-injection
// plan consulted on every monitor evaluation. Safe to call while the
// kernel runs; applies from the next evaluation.
func (r *Runtime) SetFaultInjector(fi FaultInjector) { r.faultInj.Store(&injBox{fi}) }

// injector returns the installed fault injector, or nil.
func (r *Runtime) injector() FaultInjector {
	if b := r.faultInj.Load(); b != nil {
		return b.fi
	}
	return nil
}

// SetTelemetry attaches (or with nil, detaches) a telemetry sink. With
// a sink attached, every evaluation, violation, action dispatch, retry,
// dead letter, monitor fault, and degradation-ladder transition is
// counted and recorded in the flight ring. Safe to call while the
// kernel runs.
func (r *Runtime) SetTelemetry(s *telemetry.Sink) { r.tsink.Store(s) }

// Telemetry returns the attached sink, or nil (the disabled plane).
func (r *Runtime) Telemetry() *telemetry.Sink { return r.tsink.Load() }

// SetProvenance attaches (or with nil, detaches) a decision-record
// recorder. With one attached, every violation and fault — and a
// sampled stream of healthy evaluations — is captured with its feature
// reads, branch path, and action outcomes. Safe to call while the
// kernel runs.
func (r *Runtime) SetProvenance(p *provenance.Recorder) { r.prov.Store(p) }

// Provenance returns the attached recorder, or nil (disabled).
func (r *Runtime) Provenance() *provenance.Recorder { return r.prov.Load() }

// New returns a runtime bound to a kernel and feature store, with
// default-capacity action components (a 4096-entry report log and a
// retraining budget of 4 tokens refilling at 0.1/s).
func New(k *kernel.Kernel, store *featurestore.Store) *Runtime {
	return &Runtime{
		k:          k,
		store:      store,
		Log:        actions.NewReportLog(4096),
		Policies:   actions.NewRegistry(),
		Retrainer:  actions.NewRetrainer(4, 0.1),
		DeadLetter: &actions.DeadLetter{},
		monitors:   make(map[string]*Monitor),
	}
}

// Kernel returns the runtime's kernel.
func (r *Runtime) Kernel() *kernel.Kernel { return r.k }

// Load installs a compiled guardrail and arms its triggers. Loading is
// the incremental-deployment point: guardrails can be added while the
// system runs.
func (r *Runtime) Load(c *compile.Compiled, opts Options) (*Monitor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.monitors[c.Name]; dup {
		return nil, &DuplicateLoadError{Name: c.Name}
	}
	return r.install(c, opts, nil), nil
}

// install builds the monitor for c, arms it and registers it under
// c.Name. A non-nil old is the generation being replaced: it is
// disarmed, its operator state carries over, and the replacement
// counts into the same Stats block — the old one may still be
// evaluating on the owner, or have retries to run. Callers hold r.mu.
func (r *Runtime) install(c *compile.Compiled, opts Options, old *Monitor) *Monitor {
	opts.fillDefaults()
	admitProof(c)
	m := &Monitor{
		rt:       r,
		c:        c,
		opts:     opts,
		cells:    make([]featurestore.ID, len(c.Program.Symbols)),
		lastGood: make([]float64, len(c.Program.Symbols)),
		gen:      1,
		stats:    &Stats{},
	}
	m.enabled.Store(true)
	if old != nil {
		m.enabled.Store(old.Enabled())
		m.forceShadow.Store(old.ForcedShadow())
		m.gen, m.stats = old.gen+1, old.stats
	}
	for i, sym := range c.Program.Symbols {
		m.cells[i] = r.store.Intern(sym)
	}
	m.provInit()
	if old != nil {
		old.disarm()
	}
	m.arm()
	r.monitors[c.Name] = m
	r.Telemetry().MonitorLoad(c.Name, c.Program.Meta.TrapFree)
	return m
}

// admitProof gives an unproven program carrying a verification
// certificate (a decoded image: Meta is not serialized, the certificate
// is) its certified facts back: a valid certificate restores the Meta
// claims via CheckCertificate's single linear pass. A missing,
// corrupted, or stale certificate leaves the program unverified — it
// runs on the same interpreter loop, without a certified step bound —
// and the admission decision is visible in the proven/guarded load
// telemetry split.
func admitProof(c *compile.Compiled) {
	if !c.Program.Meta.TrapFree && c.Program.Cert != nil {
		_ = vm.CheckCertificate(c.Program, vm.NumBuiltinHelpers)
	}
}

// LoadSource compiles a guardrail specification source and loads every
// guardrail in it with the same options.
func (r *Runtime) LoadSource(src string, opts Options) ([]*Monitor, error) {
	cs, err := compile.Source(src)
	if err != nil {
		return nil, err
	}
	out := make([]*Monitor, 0, len(cs))
	for _, c := range cs {
		m, err := r.Load(c, opts)
		if err != nil {
			for _, loaded := range out {
				_ = r.Unload(loaded.Name())
			}
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Update atomically replaces a loaded guardrail with a new compiled
// version under the same name — the paper's §6 "update guardrails at
// runtime without requiring a kernel reboot". The old monitor is
// disarmed only after the replacement compiled and its options were
// validated, so a bad update never leaves the property unwatched.
//
// Telemetry is continuous across the swap: the replacement carries the
// replaced generations' cumulative counters (Monitor.Stats merges them),
// its Generation is the old one plus one, and per-monitor telemetry lanes keyed by
// name keep accumulating under the same key — a hot update must not
// silently reset or orphan a monitor's counters.
//
// Operator quarantine state carries over the same way: a monitor that
// was disabled (SetEnabled(false)) or breakglass-pinned in shadow
// (ForceShadow) stays that way in the replacement — an automated hot
// update must never silently lift a quarantine an operator engaged.
func (r *Runtime) Update(c *compile.Compiled, opts Options) (*Monitor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.monitors[c.Name]
	if !ok {
		return nil, fmt.Errorf("monitor: guardrail %q not loaded", c.Name)
	}
	return r.install(c, opts, old), nil
}

// Unload disarms and removes a guardrail monitor.
func (r *Runtime) Unload(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.monitors[name]
	if !ok {
		return fmt.Errorf("monitor: guardrail %q not loaded", name)
	}
	delete(r.monitors, name)
	m.disarm()
	return nil
}

// Monitor returns the loaded monitor with the given guardrail name, or
// nil.
func (r *Runtime) Monitor(name string) *Monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.monitors[name]
}

// Monitors returns all loaded monitors sorted by name.
func (r *Runtime) Monitors() []*Monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Monitor, 0, len(r.monitors))
	for _, m := range r.monitors {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
