package monitor

import (
	"fmt"
	"math"
	"sync/atomic"

	"guardrails/internal/actions"
	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/provenance"
	"guardrails/internal/spec"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// Options tune a loaded monitor's behavior.
type Options struct {
	// ViolationStreak is the number of consecutive violated evaluations
	// required before actions fire (anti-flap hysteresis, §6). Default 1:
	// act on the first violation, the paper's base semantics. Whether an
	// evaluation may act is decided before its one program run: it acts
	// if it violates and that violation brings the streak to at least
	// ViolationStreak.
	ViolationStreak int
	// DependencyTrigger, when true, additionally evaluates the monitor
	// whenever any feature-store key the rule reads is written —
	// the §6 alternative to periodic checking. Spec triggers still apply;
	// to measure dependency triggering alone, give the spec a TIMER with
	// a very long interval.
	DependencyTrigger bool

	// --- self-protection (see guard.go) -------------------------------

	// OnFault selects what quarantine means for the guarded system:
	// FailOpen (default) stops enforcing; FailClosed drives the system
	// to its safe configuration via Fallback/Restore.
	OnFault FaultPolicy
	// Fallback runs when a FailClosed monitor is quarantined. Nil means
	// dispatch every compiled action once. (SAVE actions are inlined in
	// the program, not the action list — fail-closed guardrails whose
	// safe state is a SAVE need an explicit Fallback.)
	Fallback func(m *Monitor)
	// Restore runs when a FailClosed monitor is rearmed, undoing
	// Fallback.
	Restore func(m *Monitor)
	// BreakerThreshold is the circuit breaker's trip point: that many
	// monitor faults within BreakerWindow quarantine the monitor.
	// 0 (default) disables the breaker.
	BreakerThreshold int
	// BreakerWindow is the breaker's sliding window (default 10s).
	BreakerWindow kernel.Time
	// Cooldown, when positive, automatically rearms a quarantined
	// monitor after that long. 0 means quarantine is permanent.
	Cooldown kernel.Time
	// RetryMax is how many times a failed action dispatch is retried
	// (with exponential backoff) before it is dead-lettered. Default 0:
	// the first failure dead-letters.
	RetryMax int
	// RetryBase is the first retry delay; attempt n waits
	// RetryBase << n (default 10ms).
	RetryBase kernel.Time
}

func (o *Options) fillDefaults() {
	if o.ViolationStreak <= 0 {
		o.ViolationStreak = 1
	}
	if o.BreakerWindow <= 0 {
		o.BreakerWindow = 10 * kernel.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * kernel.Millisecond
	}
}

// Stats summarizes a monitor's activity.
type Stats struct {
	// Evals counts rule evaluations.
	Evals uint64
	// Violations counts evaluations whose rule conjunction failed.
	Violations uint64
	// ActionsFired counts acting evaluations: every violation at or past
	// the hysteresis streak outside shadow (differs from Violations under
	// hysteresis and shadow).
	ActionsFired uint64
	// Recoveries is always 0: nothing counts recovery episodes any more.
	// It, ShadowDemotions and ShadowPromotions stay so that the Stats
	// the experiments export as JSON keep their keys.
	Recoveries uint64
	// DispatchErrors counts action dispatches that failed at runtime
	// (e.g. unknown policy slot or task group), including each failed
	// retry attempt.
	DispatchErrors uint64
	// VMSteps is the total VM instructions executed, the monitor's
	// in-kernel overhead currency.
	VMSteps uint64
	// LastResult is 1 if the most recent evaluation held, 0 if violated.
	LastResult float64
	// LastTriggerAt is the simulated time of the hook fire or timer tick
	// that caused the most recent evaluation. Reports and retry notes
	// carry this trigger time, not the (possibly later) dispatch time.
	LastTriggerAt kernel.Time

	// --- self-protection counters (see guard.go) ----------------------

	// Traps counts monitor faults: VM traps, injected evaluation
	// faults, and corrupt feature reads.
	Traps uint64
	// LoadFaults counts corrupt (NaN) feature-store reads that were
	// patched with the last known good value.
	LoadFaults uint64
	// Quarantines counts circuit-breaker trips.
	Quarantines uint64
	// Rearms counts returns from quarantine after the cooldown.
	Rearms uint64
	// ShadowDemotions and ShadowPromotions are always 0: the budget
	// rung that moved monitors to shadow and back is gone.
	ShadowDemotions  uint64
	ShadowPromotions uint64
	// Retries counts scheduled action retry attempts.
	Retries uint64
	// DeadLetters counts actions that exhausted retries.
	DeadLetters uint64
}

// Monitor is a loaded guardrail: a verified VM program bound to kernel
// triggers and the feature store.
//
// Every trigger — hook fire, timer tick, dependency write, action
// retry, cooldown rearm — runs on the goroutine that fires the
// runtime's kernel (see package kernel), which owns the evaluation
// state and Stats: plain fields, no lock. Any goroutine may toggle
// (SetEnabled, ForceShadow, SetActGate: one atomic store, applied from
// the next evaluation) or Load, Update and Unload through the runtime.
// Read Stats on the owner — in an event or a barrier callback — or
// after it has stopped.
type Monitor struct {
	rt    *Runtime
	c     *compile.Compiled
	opts  Options
	cells []featurestore.ID

	// gen is the monitor's deployment generation under its name: 1 on
	// first Load, incremented by every hot Update. Fixed at install.
	gen int

	timers []*kernel.Timer
	detach []func()

	// Operator toggles, loaded once per evaluation. The owner tells a
	// newly installed actGate from the one it has (gate) by pointer.
	enabled     atomic.Bool
	forceShadow atomic.Bool
	actGate     atomic.Pointer[actGate]

	machine vm.Machine // owned, like everything below

	// running admits one evaluation at a time and breaks the
	// dependency-trigger recursion: a SAVE during evaluation fires store
	// watchers, which re-enter Evaluate and bounce off it.
	running bool

	// suppressActions gates the in-flight evaluation's SAVE/REPORT/ACTION
	// effects: set before the run when the monitor is in shadow or a
	// violation would not yet complete the hysteresis streak.
	suppressActions bool

	// lastGood holds the last non-NaN value read per cell, the
	// substitute served when a read comes back corrupt.
	lastGood []float64

	// trigAt is the simulated time of the trigger that started the
	// in-flight evaluation; action closures copy it out so retries keep
	// the original trigger time.
	trigAt kernel.Time

	// telSink is the telemetry sink the in-flight (or last) evaluation
	// saw and telSteps this monitor's eval-steps histogram on it, looked
	// up by name only when the runtime's sink pointer differs from
	// telSink — so a SetTelemetry swap or detach takes effect at the next
	// evaluation.
	telSink  *telemetry.Sink
	telSteps *telemetry.Hist

	// Provenance capture state (see provenance.go). prov is the
	// reusable scratch record and provTrace the reusable VM branch
	// trace for the in-flight evaluation; provLive marks a capture in
	// flight; provSkip is the head-based healthy-sample countdown
	// (commit at zero, reload to HealthyEvery-1); provSite is the
	// in-flight evaluation's hook site.
	prov      provenance.Record
	provTrace vm.BranchTrace
	provLive  bool
	provSkip  uint64
	provSite  string
	// provSyms is the program symbol table (pulled up from
	// m.c.Program so feature capture does one index, not a pointer
	// chase per LOAD); provGlobal marks, per program cell, whether the
	// symbol names a cross-shard aggregate (*_global / fs_epoch) —
	// precomputed at load so capture does no string work.
	provSyms   []string
	provGlobal []bool

	state State

	// stats is shared by every generation under the monitor's name: a hot
	// Update hands the replacement the same block, so a replaced
	// generation's last evaluations, retries and rearms still count.
	stats *Stats

	// evalIdx numbers evaluation attempts (including faulted ones) for
	// the act gate's deterministic sampling. It restarts at zero when
	// the owner first sees a newly installed gate, so monitors attached
	// to the same trigger stream whose gates are installed in the same
	// kernel step see aligned indices from then on — the property
	// complementary stride gates rely on.
	evalIdx uint64
	gate    *actGate

	violStreak int

	faultTimes []kernel.Time // breaker sliding window
}

// actGate is one SetActGate installation.
type actGate struct{ admit func(n uint64) bool }

// Name returns the guardrail name.
func (m *Monitor) Name() string { return m.c.Name }

// Program returns the monitor's compiled VM program.
func (m *Monitor) Program() *vm.Program { return m.c.Program }

// Stats returns a snapshot of the monitor's counters. They are
// cumulative over every generation under the monitor's name — a
// replaced generation reads the same block as its successor — so
// telemetry reads continuously across hot updates instead of silently
// resetting. The counters are owned: read them on the owner or after it
// has stopped.
func (m *Monitor) Stats() Stats { return *m.stats }

// Generation returns the monitor's deployment generation under its
// name: 1 for a fresh Load, incremented by each hot Update.
func (m *Monitor) Generation() int { return m.gen }

// SetActGate installs (or with nil, removes) a per-evaluation action
// gate: before each evaluation the gate is consulted with the
// evaluation's index, and a false answer runs that evaluation in shadow
// (rules evaluate and violations count, actions are suppressed). The
// rollout control plane uses complementary deterministic stride gates
// on an incumbent/canary pair to split action traffic between
// generations; breakglass uses an always-false gate's stronger cousin,
// ForceShadow. Safe from any goroutine: the gate applies from the
// monitor's next evaluation.
//
// Installing (or removing) a gate restarts the evaluation index at
// zero, when the owner first sees the new gate: an incumbent that has
// already evaluated thousands of times and a freshly loaded candidate
// would otherwise consult complementary gates at offset indices, making
// some firings act twice and others not at all. Gating both members of
// a pair in the same kernel step restarts their indices together, so
// the split really is complementary.
func (m *Monitor) SetActGate(gate func(n uint64) bool) {
	m.actGate.Store(&actGate{admit: gate})
}

// ForceShadow pins (or with false, releases) the monitor in shadow mode
// regardless of its degradation-ladder state and options — the
// breakglass quarantine. Safe from any goroutine; applies from the next
// evaluation.
func (m *Monitor) ForceShadow(v bool) { m.forceShadow.Store(v) }

// ForcedShadow reports whether breakglass has pinned the monitor in
// shadow mode.
func (m *Monitor) ForcedShadow() bool { return m.forceShadow.Load() }

// Enabled reports whether the monitor evaluates on triggers.
func (m *Monitor) Enabled() bool { return m.enabled.Load() }

// SetEnabled toggles evaluation without unloading (cheap pause/resume).
// Safe from any goroutine; applies from the next evaluation.
func (m *Monitor) SetEnabled(v bool) { m.enabled.Store(v) }

// arm binds the guardrail's triggers to the kernel.
func (m *Monitor) arm() {
	for _, t := range m.c.Triggers {
		switch tt := t.(type) {
		case *spec.TimerTrigger:
			timer := m.rt.k.Every(kernel.Time(tt.Start), kernel.Time(tt.Interval), kernel.Time(tt.Stop),
				func(now kernel.Time) { m.Evaluate(0) })
			m.timers = append(m.timers, timer)
		case *spec.FuncTrigger:
			site := tt.Site
			detach := m.rt.k.Attach(tt.Site, func(_ *kernel.Kernel, _ string, args []float64) {
				arg := 0.0
				if len(args) > 0 {
					arg = args[0]
				}
				m.evaluateAt(site, arg)
			})
			m.detach = append(m.detach, detach)
		}
	}
	if m.opts.DependencyTrigger {
		// The keys the program loads, not the ones it only stores.
		for _, key := range m.c.Footprint.Loads {
			m.detach = append(m.detach, m.rt.store.Watch(key, func(string, float64) {
				m.Evaluate(0)
			}))
		}
	}
}

func (m *Monitor) disarm() {
	for _, t := range m.timers {
		t.Stop()
	}
	for _, d := range m.detach {
		d()
	}
	m.timers, m.detach = nil, nil
	m.SetEnabled(false)
}

// Evaluate runs the monitor program once with the given trigger argument
// (hook sites pass their first argument; timers pass 0). It returns
// whether the property held. Violations fire actions subject to the
// hysteresis options. It runs on the owner (see Monitor).
//
// A monitor fault — a VM trap, an injected evaluation fault — does NOT
// count as a property violation: the evaluation is abandoned, the fault
// is reported and fed to the circuit breaker, and Evaluate returns true.
// Whether a persistently faulting guardrail then enforces anything is
// the quarantine policy's decision (Options.OnFault), not a side effect
// of one bad run.
//
//guardrails:hotpath
func (m *Monitor) Evaluate(arg float64) bool { return m.evaluateAt("", arg) }

// evaluateAt is Evaluate for a trigger at a named hook site ("" for
// timers, dependency triggers and direct calls); the site labels the
// evaluation's provenance records.
//
//guardrails:hotpath
func (m *Monitor) evaluateAt(site string, arg float64) bool {
	if m.running {
		return true
	}
	m.running = true
	// A panic the kernel's hook guard recovers must not leave the
	// monitor marked running, or it would never evaluate again.
	defer m.evalDone()
	if !m.enabled.Load() || m.state == StateQuarantined {
		return true
	}
	m.provSite = site
	shadow := m.forceShadow.Load()
	shadowReason := ""
	if shadow {
		shadowReason = "forced-shadow"
	}
	if g := m.actGate.Load(); g != m.gate {
		m.gate, m.evalIdx = g, 0
	}
	if m.gate != nil && m.gate.admit != nil && !shadow && !m.gate.admit(m.evalIdx) {
		shadow = true
		shadowReason = "act-gate"
	}
	m.evalIdx++

	// The trigger time: hook fires and timer ticks run at the current
	// simulated instant, so Now() here is the triggering hook's
	// timestamp. Reports and retries carry this, not their own later
	// dispatch times.
	trig := m.rt.k.Now()
	m.trigAt = trig
	sink := m.rt.Telemetry()
	if sink != m.telSink {
		m.telSink, m.telSteps = sink, sink.EvalHist(m.Name())
	}
	prov := m.rt.Provenance()
	if prov != nil {
		m.provBegin(arg, shadow, shadowReason)
	}

	if inj := m.rt.injector(); inj != nil {
		if err := inj.EvalFault(m.Name()); err != nil {
			m.recordFault("injected-trap", err)
			m.provAbandon()
			return true
		}
	}

	// Whether this evaluation may act is decided before the one run: the
	// compiler emits every effect in the violated block, so only a
	// violating run reaches one, and a violation acts exactly when it
	// brings the streak to ViolationStreak or past it.
	m.suppressActions = shadow || m.violStreak+1 < m.opts.ViolationStreak
	before := m.machine.Steps
	out, err := m.machine.Run(m.c.Program, m, arg)
	steps := m.machine.Steps - before

	m.stats.Evals++
	m.stats.VMSteps += steps
	m.stats.LastTriggerAt = trig
	if err != nil {
		sink.EvalOn(m.telSteps, int64(trig), m.Name(), steps, true)
		m.recordFault(trapKind(err), err)
		m.provAbandon()
		return true
	}
	m.stats.LastResult = out
	held := out != 0
	fired := false
	if held {
		m.violStreak = 0
	} else {
		m.stats.Violations++
		m.violStreak++
		if !m.suppressActions {
			m.stats.ActionsFired++
			fired = true
		}
	}
	sink.EvalOn(m.telSteps, int64(trig), m.Name(), steps, held)
	m.provEnd(prov, held, steps)
	if fired {
		sink.ActionsFired(int64(trig), m.Name())
	}
	return held
}

// evalDone ends an evaluation; evaluateAt defers it.
func (m *Monitor) evalDone() { m.running = false }

// --- vm.Env implementation -------------------------------------------

// LoadCell implements vm.Env against the resolved feature-store cells.
// A corrupt (NaN) read — from the store or from an injected fault — is
// reported, counted, fed to the breaker, and patched with the cell's
// last known good value so one poisoned feature cannot wedge the rule.
//
//guardrails:hotpath
func (m *Monitor) LoadCell(i int32) float64 {
	v := m.rt.store.LoadID(m.cells[i])
	if inj := m.rt.injector(); inj != nil {
		if fv, ok := inj.LoadFault(m.Name(), m.c.Program.Symbols[i], v); ok {
			v = fv
		}
	}
	if math.IsNaN(v) {
		good := m.lastGood[i]
		m.stats.LoadFaults++
		if m.provLive {
			m.provFeature(i, good, true)
		}
		m.recordFault("corrupt-load", fmt.Errorf("NaN read from %q, substituting last good value %g", m.c.Program.Symbols[i], good))
		return good
	}
	m.lastGood[i] = v
	if m.provLive {
		m.provFeature(i, v, false)
	}
	return v
}

// StoreCell implements vm.Env. SAVE actions are suppressed when the
// evaluation may not act (shadow, or a hysteresis streak not yet
// complete).
//
//guardrails:hotpath
func (m *Monitor) StoreCell(i int32, v float64) {
	if m.suppressActions {
		if m.provLive {
			// The symbol is interned, so recording the suppressed SAVE
			// against it allocates nothing.
			m.prov.AddAction(m.provSyms[i], "save-suppressed")
		}
		return
	}
	if m.provLive {
		m.prov.AddAction(m.provSyms[i], "save")
	}
	m.rt.store.SaveID(m.cells[i], v)
}

// Helper implements vm.Env, dispatching monitor helpers and actions.
// An injected helper fault surfaces as a TrapHelper through the VM.
//
//guardrails:hotpath
func (m *Monitor) Helper(h vm.HelperID, args *[5]float64) (float64, error) {
	if inj := m.rt.injector(); inj != nil {
		if err := inj.HelperFault(m.Name(), h); err != nil {
			return 0, err
		}
	}
	switch h {
	case vm.HelperNow:
		return float64(m.rt.k.Now()), nil
	case vm.HelperReport:
		// The compiler sends REPORT through HelperAction: only a decoded
		// or hand-built image reaches this branch.
		if !m.suppressActions {
			vals := []float64{args[0]} //guardrails:coldpath the compiler never emits HelperReport
			v := actions.Violation{Time: m.trigAt, Guardrail: m.Name(), Values: vals}
			m.runAction("REPORT", func() error { //guardrails:coldpath the compiler never emits HelperReport
				m.rt.Log.Append(v)
				return nil
			}, 0, m.trigAt)
		} else if m.provLive {
			m.prov.AddAction("REPORT", "suppressed")
		}
		return 0, nil
	case vm.HelperAction:
		if !m.suppressActions {
			m.dispatchAction(int(args[0]), args[1:], m.trigAt)
		} else if m.provLive {
			m.prov.AddAction("ACTION", "suppressed")
		}
		return 0, nil
	default:
		v, _ := vm.PureHelper(h, args[0])
		return v, nil
	}
}

// dispatchAction interprets a compiled action index against the
// guardrail's action list and runs it through the retry machinery.
// trig is the simulated time of the triggering hook (or, for
// out-of-band dispatch such as a fail-closed fallback, the dispatch
// time itself).
func (m *Monitor) dispatchAction(idx int, vals []float64, trig kernel.Time) {
	if idx < 0 || idx >= len(m.c.Actions) {
		m.stats.DispatchErrors++
		m.rt.Log.Append(actions.Violation{
			Time: trig, Guardrail: m.Name(),
			Note: fmt.Sprintf("action dispatch failed: no action at index %d", idx),
		})
		return
	}
	// vals aliases the VM's argument registers; actionExec copies what it
	// needs before any closure can outlive this call, so no allocation
	// happens on the dispatch path.
	name, exec := m.actionExec(m.c.Actions[idx], vals, trig)
	m.runAction(name, exec, 0, trig)
}

// actionExec binds a compiled action to its backend, returning the
// rendered action name (for logs and the dead-letter queue) and an
// idempotent-enough closure the retry machinery can re-run. vals may
// alias the VM's argument registers, which are reused by the next
// dispatch: anything a closure needs is copied out eagerly here.
func (m *Monitor) actionExec(act spec.Action, vals []float64, trig kernel.Time) (string, func() error) {
	switch a := act.(type) {
	case *spec.ReportAction:
		var saved [compile.MaxReportArgs]float64
		n := 0
		if k := len(a.Args); k > 0 && k <= len(vals) && k <= len(saved) {
			n = copy(saved[:], vals[:k])
		}
		return "REPORT", func() error {
			v := actions.Violation{Time: trig, Guardrail: m.Name()}
			if n > 0 {
				v.Values = append(v.Values, saved[:n]...)
			}
			m.rt.Log.Append(v)
			return nil
		}
	case *spec.ReplaceAction:
		return fmt.Sprintf("REPLACE(%s, %s)", a.Old, a.New), func() error {
			_, err := m.rt.Policies.Replace(a.Old, a.New, m.rt.k.Now())
			return err
		}
	case *spec.RetrainAction:
		return fmt.Sprintf("RETRAIN(%s)", a.Model), func() error {
			if !m.rt.Retrainer.Request(a.Model, m.rt.k.Now()) {
				return fmt.Errorf("retrain %q rejected by rate limit", a.Model)
			}
			return nil
		}
	case *spec.DeprioritizeAction:
		// No binary owns a task group, so there is no backend to demote
		// one: the dispatch fails and takes the retry ladder.
		return fmt.Sprintf("DEPRIORITIZE(%s)", a.Target), func() error {
			return fmt.Errorf("actions: no task group %q", a.Target)
		}
	case *spec.SaveAction:
		// SAVE compiles inline into the monitor program, so this path
		// only runs for out-of-band dispatch (fail-closed quarantine):
		// the VM is unavailable, so only constant values can be applied.
		return fmt.Sprintf("SAVE(%s)", a.Key), func() error {
			v, ok := compile.ConstEval(a.Value)
			if !ok {
				return fmt.Errorf("save %q: value %s is not constant outside the VM",
					a.Key, spec.ExprString(a.Value))
			}
			m.rt.store.Save(a.Key, v)
			return nil
		}
	default:
		return fmt.Sprintf("%T", act), func() error {
			return fmt.Errorf("unsupported action %T", act)
		}
	}
}
