package monitor

import (
	"fmt"

	"guardrails/internal/actions"
	"guardrails/internal/kernel"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// The guardrails watch the system; this file watches the guardrails.
// A monitor whose program traps, whose feature reads are corrupt, or
// whose action backends fail must not be allowed to take the system
// down with it — and must not fail silently either. The runtime
// degrades each monitor down an explicit ladder:
//
//	StateActive ──breaker trip─▶ StateQuarantined ──cooldown──▶ StateActive
//
// Every step down the ladder is reported; what a quarantined guardrail
// stops doing is governed by its FaultPolicy.

// State is a monitor's position on the degradation ladder.
type State int

const (
	// StateActive: evaluating normally, actions enabled.
	StateActive State = iota
	// StateQuarantined: the circuit breaker tripped — evaluation is
	// suspended until the cooldown elapses.
	StateQuarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// FaultPolicy decides what a guardrail's quarantine means for the
// system it was protecting.
type FaultPolicy int

const (
	// FailOpen (the default): a quarantined guardrail simply stops
	// enforcing; the guarded policy keeps running unguarded. Right for
	// advisory guardrails whose actions are worse than no actions.
	FailOpen FaultPolicy = iota
	// FailClosed: losing the guardrail means losing trust in the
	// policy it guards — on quarantine the monitor's Fallback runs
	// (default: dispatch every compiled action once, driving the
	// system to its safe configuration), and Restore runs on rearm.
	// Note that SAVE actions are inlined into the monitor program, not
	// in the compiled action list, so fail-closed guardrails whose
	// safe state is a SAVE should set an explicit Fallback.
	FailClosed
)

// String names the policy.
func (p FaultPolicy) String() string {
	if p == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// FaultInjector is the seam through which a fault-injection plan
// (package faults) reaches the monitor runtime. Every method is called
// on the evaluation path; implementations must be cheap and safe for
// concurrent use. A nil injector (the default) costs one atomic load
// per evaluation.
type FaultInjector interface {
	// EvalFault, when non-nil, aborts the evaluation before the
	// program runs, as if the VM had trapped.
	EvalFault(guardrail string) error
	// LoadFault may replace the value read from a feature-store key
	// (returning the corrupted value and true), e.g. with NaN or a
	// stale snapshot.
	LoadFault(guardrail, key string, value float64) (float64, bool)
	// HelperFault, when non-nil, fails the given helper call, which
	// the VM surfaces as a TrapHelper.
	HelperFault(guardrail string, h vm.HelperID) error
	// ActionFault, when non-nil, fails the dispatch of the named
	// action (e.g. "RETRAIN(linnos)") before its backend runs.
	ActionFault(guardrail, action string) error
}

// recordFault counts a monitor fault, surfaces it in the report log
// with a structured note ("monitor fault [<kind>]: ..."), and feeds the
// circuit breaker. kind is a stable marker chaos experiments grep for.
func (m *Monitor) recordFault(kind string, err error) {
	now := m.rt.k.Now()
	m.stats.Traps++
	m.rt.Telemetry().Fault(int64(now), m.Name(), kind)
	if rec := m.rt.Provenance(); rec != nil {
		m.provFault(rec, kind, now)
	}
	m.rt.Log.Append(actions.Violation{
		Time: now, Guardrail: m.Name(),
		Note: fmt.Sprintf("monitor fault [%s]: %v", kind, err),
	})
	m.breakerHit(now)
}

// trapKind maps a VM error to its note marker.
func trapKind(err error) string {
	if c := vm.Classify(err); c != vm.TrapNone {
		return c.String() + "-trap"
	}
	return "vm-error"
}

// breakerHit records one fault against the sliding-window circuit
// breaker and quarantines the monitor when the threshold is reached.
func (m *Monitor) breakerHit(now kernel.Time) {
	if m.opts.BreakerThreshold <= 0 || m.state == StateQuarantined {
		return
	}
	cutoff := now - m.opts.BreakerWindow
	kept := m.faultTimes[:0]
	for _, t := range m.faultTimes {
		if t >= cutoff {
			kept = append(kept, t)
		}
	}
	m.faultTimes = append(kept, now)
	if len(m.faultTimes) < m.opts.BreakerThreshold {
		return
	}
	m.faultTimes = m.faultTimes[:0]
	m.quarantine(fmt.Sprintf("%d faults within %s", m.opts.BreakerThreshold, m.opts.BreakerWindow))
}

// quarantine trips the breaker: evaluation stops, the event is
// reported, the fail-closed fallback runs, and the cooldown rearm is
// scheduled. Idempotent.
func (m *Monitor) quarantine(reason string) {
	now := m.rt.k.Now()
	if m.state == StateQuarantined {
		return
	}
	m.state = StateQuarantined
	m.stats.Quarantines++
	m.rt.Telemetry().Transition(int64(now), m.Name(), telemetry.KindQuarantine, reason)
	m.rt.Log.Append(actions.Violation{
		Time: now, Guardrail: m.Name(),
		Note: fmt.Sprintf("quarantined (%s): %s", m.opts.OnFault, reason),
	})
	if m.opts.OnFault == FailClosed {
		if m.opts.Fallback != nil {
			m.opts.Fallback(m)
		} else {
			for i := range m.c.Actions {
				m.dispatchAction(i, nil, now)
			}
		}
	}
	if m.opts.Cooldown > 0 {
		m.rt.k.After(m.opts.Cooldown, func() { m.rearm("cooldown") })
	}
}

// rearm returns a quarantined monitor to active duty.
func (m *Monitor) rearm(how string) {
	if m.state != StateQuarantined || !m.enabled.Load() {
		return
	}
	m.state = StateActive
	m.stats.Rearms++
	m.faultTimes = m.faultTimes[:0]
	m.rt.Telemetry().Transition(int64(m.rt.k.Now()), m.Name(), telemetry.KindRearm, how)
	m.rt.Log.Append(actions.Violation{
		Time: m.rt.k.Now(), Guardrail: m.Name(),
		Note: fmt.Sprintf("rearmed (%s)", how),
	})
	if m.opts.OnFault == FailClosed && m.opts.Restore != nil {
		m.opts.Restore(m)
	}
}

// runAction executes one dispatched action with injection, retry, and
// dead-letter semantics. attempt is zero-based; failures retry with
// exponential backoff (RetryBase << attempt) until RetryMax retries
// are spent, then land in the runtime's dead-letter queue. trig is the
// simulated time of the triggering hook; retry notes carry it so a log
// reader can correlate a late retry back to the violation that caused
// it.
func (m *Monitor) runAction(name string, exec func() error, attempt int, trig kernel.Time) {
	var err error
	if inj := m.rt.injector(); inj != nil {
		err = inj.ActionFault(m.Name(), name)
	}
	if err == nil {
		err = exec()
	}
	now := m.rt.k.Now()
	sink := m.rt.Telemetry()
	sink.Action(int64(now), m.Name(), name, attempt, err == nil)
	if err == nil {
		m.provAction(name, "ok", attempt)
		if attempt > 0 {
			m.rt.Log.Append(actions.Violation{
				Time: now, Guardrail: m.Name(),
				Note: fmt.Sprintf("action %s recovered (attempt %d) [triggered at %s]", name, attempt+1, trig),
			})
		}
		return
	}
	m.stats.DispatchErrors++
	m.rt.Log.Append(actions.Violation{
		Time: now, Guardrail: m.Name(),
		Note: fmt.Sprintf("action %s failed (attempt %d) [triggered at %s]: %v", name, attempt+1, trig, err),
	})
	m.breakerHit(now)
	if attempt >= m.opts.RetryMax {
		m.provAction(name, "dead-letter", attempt)
		m.stats.DeadLetters++
		sink.DeadLetter(int64(now), m.Name(), name)
		m.rt.DeadLetter.Add()
		return
	}
	m.provAction(name, "retry", attempt)
	m.stats.Retries++
	sink.ActionRetry(int64(now), m.Name(), name, attempt+1)
	m.rt.k.After(m.opts.RetryBase<<attempt, func() { m.runAction(name, exec, attempt+1, trig) })
}
