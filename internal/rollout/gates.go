package rollout

import (
	"fmt"

	"guardrails/internal/monitor"
	"guardrails/internal/telemetry"
)

// Gates are the telemetry thresholds a candidate generation must stay
// inside during its shadow and canary windows. A nil *Gates in
// Config means DefaultGates; the zero value itself is a legitimate
// maximally strict configuration (no violation-rate regression, no
// action failures, no faults tolerated).
type Gates struct {
	// MaxViolationRateDelta is how much higher the candidate's
	// violation rate (violations per evaluation) may be than its
	// incumbent's over the window. Candidates for *added* guardrails
	// (no incumbent) are held against a zero baseline.
	MaxViolationRateDelta float64
	// MaxActionFailureRate is the tolerated fraction of the candidate's
	// action dispatch attempts that fail (retries plus dead letters per
	// dispatch). Only gated once the candidate dispatches actions, i.e.
	// in the canary stage.
	MaxActionFailureRate float64
	// MaxFaults is the number of candidate monitor faults (VM traps,
	// corrupt loads, circuit-breaker trips) tolerated per window.
	MaxFaults uint64
}

// DefaultGates returns the default promotion gates.
func DefaultGates() Gates {
	return Gates{
		MaxViolationRateDelta: 0.25,
		MaxActionFailureRate:  0.10,
		MaxFaults:             0,
	}
}

// lane aggregates one subject's telemetry over a gate window.
type lane struct {
	Evals      uint64
	Violations uint64
	Faults     uint64
	Dispatches uint64
	Failures   uint64
	Steps      float64
}

func (l lane) violationRate() float64 {
	if l.Evals == 0 {
		return 0
	}
	return float64(l.Violations) / float64(l.Evals)
}

func (l lane) failureRate() float64 {
	if l.Dispatches == 0 {
		return 0
	}
	return float64(l.Failures) / float64(l.Dispatches)
}

// windowLanes reduces the flight-recorder window since start into
// per-subject lanes. ok=false means the sink is absent or the ring
// wrapped past the window start — callers must fall back to counter
// deltas. truncated distinguishes the wrap case (counted on the sink
// as flight_window_truncated_total) from a system with no flight
// recorder at all.
func windowLanes(sink *telemetry.Sink, start telemetry.Time) (lanes map[string]lane, ok, truncated bool) {
	f := sink.Flight()
	if f == nil {
		return nil, false, false
	}
	events, truncated := f.EventsSince(start)
	if truncated {
		sink.FlightWindowTruncated()
		return nil, false, true
	}
	lanes = map[string]lane{}
	for _, e := range events {
		l := lanes[e.Subject]
		switch e.Kind {
		case telemetry.KindEval:
			l.Evals++
			l.Steps += e.Value
		case telemetry.KindViolation:
			l.Violations++
		case telemetry.KindFault, telemetry.KindQuarantine:
			l.Faults++
		case telemetry.KindAction:
			l.Dispatches++
		case telemetry.KindActionRetry, telemetry.KindDeadLetter:
			l.Failures++
		default:
			continue
		}
		lanes[e.Subject] = l
	}
	return lanes, true, false
}

// statsLane derives a window lane from monitor counter deltas — the
// fallback when no flight recorder covers the window. Stats carry no
// per-dispatch attempt count, so dispatches are approximated by action
// episodes and failures by dispatch errors.
func statsLane(now, start monitor.Stats) lane {
	return lane{
		Evals:      now.Evals - start.Evals,
		Violations: now.Violations - start.Violations,
		Faults:     (now.Traps - start.Traps) + (now.Quarantines - start.Quarantines),
		Dispatches: now.ActionsFired - start.ActionsFired,
		Failures:   now.DispatchErrors - start.DispatchErrors,
		Steps:      float64(now.VMSteps - start.VMSteps),
	}
}

// check gates one candidate/incumbent lane pair. A non-empty return is
// the gate-failure reason.
func (g Gates) check(stage, name string, cand, inc lane, hasIncumbent bool) string {
	if cand.Faults > g.MaxFaults {
		return fmt.Sprintf("%s: candidate %s faulted %d times (max %d)",
			stage, name, cand.Faults, g.MaxFaults)
	}
	// A candidate that never ran is indistinguishable from a mis-wired
	// trigger.
	if cand.Evals == 0 {
		return fmt.Sprintf("%s: candidate %s never evaluated in the window", stage, name)
	}
	baseline := 0.0
	if hasIncumbent {
		baseline = inc.violationRate()
	}
	if delta := cand.violationRate() - baseline; delta > g.MaxViolationRateDelta {
		return fmt.Sprintf("%s: candidate %s violation rate %.3f exceeds incumbent %.3f by %.3f (max delta %.3f)",
			stage, name, cand.violationRate(), baseline, delta, g.MaxViolationRateDelta)
	}
	if rate := cand.failureRate(); rate > g.MaxActionFailureRate {
		return fmt.Sprintf("%s: candidate %s action failure rate %.3f (%d/%d dispatches, max %.3f)",
			stage, name, rate, cand.Failures, cand.Dispatches, g.MaxActionFailureRate)
	}
	return ""
}
