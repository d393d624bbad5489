// Package telemetry is the kernel-wide observability plane: counters,
// latency/VM-step histograms, and a bounded flight-recorder
// event ring, all fed from instrumentation points in the simulated
// kernel (hook dispatch), the monitor runtime (evaluate/action/guard
// paths), the storage substrate (GC pauses, failover), and the feature
// store (read/write volume). A run exports as a Prometheus-style text
// page, a JSON snapshot (diffable for before/after comparisons), or a
// Chrome trace_event file for timeline viewing in Perfetto.
//
// The plane is disabled by a nil *Sink: every method nil-checks its
// receiver and returns immediately, so instrumented hot paths stay
// zero-allocation and branch-predictable when telemetry is off — the
// same discipline eBPF applies to disabled tracepoints.
//
// A sink belongs to the goroutine that fires the kernel it is attached
// to, as the kernel's sites and monitors do (DESIGN.md, "Ownership"):
// that goroutine writes it with plain stores — a counter add, a
// histogram bucket increment, one Event copied into a preallocated
// ring — with no lock, no atomic and no allocation. Everyone else reads
// a sink on its owner (in a kernel event or a pool barrier callback) or
// after the owner has stopped; the exporters and the ops endpoint are
// such readers. A pool gives every shard a sink of its own, the
// per-CPU layout eBPF uses for the same reason.
//
// Time: the package deliberately does not import the kernel (the kernel
// itself is instrumented, which would cycle); simulated timestamps
// travel as int64 nanoseconds (the representation of kernel.Time).
// Wall-clock durations — the real cost of hook dispatch, the paper's
// "accountable overhead" — are measured with time.Now at the
// instrumentation site and recorded in nanoseconds; the kernel takes
// them on a sample of fires (a clock read pair costs about what a bare
// fire does), while every counter, flight event and step histogram is
// exact.
package telemetry

import (
	"fmt"

	"guardrails/internal/stats"
)

// Time is a simulated timestamp in nanoseconds since boot — the value
// representation of kernel.Time, kept as int64 here to avoid an import
// cycle with the instrumented kernel.
type Time = int64

// histMaxExp covers values up to 2^40 ns (~18 simulated minutes) in
// log2 buckets — wide enough for any latency this repo simulates.
const histMaxExp = 40

// Hist is a log2 histogram handle, owned like Counter. It is nil-safe:
// a nil *Hist ignores observations and summarizes to zero.
type Hist struct {
	h *stats.LogHistogram
}

func newHist() *Hist { return &Hist{h: stats.NewLogHistogram(histMaxExp)} }

// Observe incorporates one observation. stats.LogHistogram.Add is total:
// NaN is dropped, a negative counts as 0 and overflow saturates.
//
//guardrails:hotpath
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Add(v)
}

// Summary exports the fixed quantile set (zero Summary when empty).
func (h *Hist) Summary() stats.Summary {
	if h == nil {
		return stats.Summary{}
	}
	return h.h.Summary()
}

// buckets exposes the raw log2 buckets for the native-histogram
// Prometheus export (see stats.LogHistogram.Buckets).
func (h *Hist) buckets() (zero uint64, bins []uint64, total uint64, sum float64) {
	if h == nil {
		return 0, nil, 0, 0
	}
	return h.h.Buckets()
}

// Counters is the fixed counter set every sink carries. Field names
// mirror the monitor's Stats so a snapshot reconciles 1:1 with
// per-monitor accounting (summed over monitors).
type Counters struct {
	HookFires           Counter
	Evals               Counter
	Violations          Counter
	ActionsFired        Counter
	ActionDispatches    Counter
	ActionErrors        Counter
	Retries             Counter
	DeadLetters         Counter
	Faults              Counter
	Quarantines         Counter
	Rearms              Counter
	ShadowDemotions     Counter
	ShadowPromotions    Counter
	VMSteps             Counter
	GCPauses            Counter
	Failovers           Counter
	StoreLoads          Counter
	StoreSaves          Counter
	IOReads             Counter
	IOWrites            Counter
	ProvenLoads         Counter
	GuardedLoads        Counter
	DeployAdmitted      Counter
	DeployRejected      Counter
	RolloutPromotions   Counter
	RolloutRollbacks    Counter
	RolloutAdmitRetries Counter
	Breakglass          Counter
	BreakglassReleases  Counter
	// FlightWindowTruncated counts flight-recorder window reads
	// (EventsSince) that could not cover their window because the ring
	// wrapped — each one is a rollout gate (or other reader) forced to
	// fall back to coarser counter deltas.
	FlightWindowTruncated Counter
}

// byName returns the exposition name → counter mapping. The
// names follow Prometheus conventions (snake case, _total suffix).
func (c *Counters) byName() []struct {
	name string
	ctr  *Counter
} {
	return []struct {
		name string
		ctr  *Counter
	}{
		{"hook_fires_total", &c.HookFires},
		{"evals_total", &c.Evals},
		{"violations_total", &c.Violations},
		{"actions_fired_total", &c.ActionsFired},
		{"action_dispatches_total", &c.ActionDispatches},
		{"action_errors_total", &c.ActionErrors},
		{"action_retries_total", &c.Retries},
		{"dead_letters_total", &c.DeadLetters},
		{"monitor_faults_total", &c.Faults},
		{"quarantines_total", &c.Quarantines},
		{"rearms_total", &c.Rearms},
		{"shadow_demotions_total", &c.ShadowDemotions},
		{"shadow_promotions_total", &c.ShadowPromotions},
		{"vm_steps_total", &c.VMSteps},
		{"ssd_gc_pauses_total", &c.GCPauses},
		{"replica_transitions_total", &c.Failovers},
		{"featurestore_loads_total", &c.StoreLoads},
		{"featurestore_saves_total", &c.StoreSaves},
		{"io_reads_total", &c.IOReads},
		{"io_writes_total", &c.IOWrites},
		{"monitor_loads_proven_total", &c.ProvenLoads},
		{"monitor_loads_guarded_total", &c.GuardedLoads},
		{"deployment_admitted_total", &c.DeployAdmitted},
		{"deployment_rejected_total", &c.DeployRejected},
		{"rollout_promotions_total", &c.RolloutPromotions},
		{"rollout_rollbacks_total", &c.RolloutRollbacks},
		{"rollout_admission_retries_total", &c.RolloutAdmitRetries},
		{"breakglass_total", &c.Breakglass},
		{"breakglass_releases_total", &c.BreakglassReleases},
		{"flight_window_truncated_total", &c.FlightWindowTruncated},
	}
}

// Sink is one telemetry plane: attach it to a kernel, monitor runtime,
// feature store, and storage devices, run the system, then export.
// A nil *Sink is the disabled plane — every method is a nil-check away
// from free, so instrumentation points never need their own guards.
type Sink struct {
	clock func() Time
	rec   *Flight

	// Counters is the fixed counter set; exported so callers can read
	// individual counters directly.
	Counters Counters

	// hookNS: per hook site, wall-clock nanoseconds spent dispatching
	// that site's callbacks (the monitors' real overhead).
	hookNS map[string]*Hist
	// evalSteps: per monitor, VM steps per evaluation.
	evalSteps map[string]*Hist
	// ioNS: per device, simulated I/O latency in nanoseconds.
	ioNS map[string]*Hist
}

// New returns a sink whose flight recorder retains eventCap events and
// whose snapshots are stamped with clock (typically the simulated
// kernel's Now). A nil clock stamps zero.
func New(clock func() Time, eventCap int) *Sink {
	if clock == nil {
		clock = func() Time { return 0 }
	}
	return &Sink{
		clock:     clock,
		rec:       NewFlight(eventCap),
		hookNS:    make(map[string]*Hist),
		evalSteps: make(map[string]*Hist),
		ioNS:      make(map[string]*Hist),
	}
}

// SetClock replaces the sink's snapshot clock. Callers that construct
// the sink before the simulated kernel exists (e.g. a CLI wiring
// telemetry into an experiment it is about to build) bind the clock
// here once the kernel is up. Nil-safe; a nil fn restores the zero
// clock.
func (s *Sink) SetClock(fn func() Time) {
	if s == nil {
		return
	}
	if fn == nil {
		fn = func() Time { return 0 }
	}
	s.clock = fn
}

// Now returns the sink's clock reading — the simulated time snapshots
// are stamped with. A nil sink (or nil clock) reads zero. Event sources
// without a timestamp of their own (e.g. replica fail/heal) use this.
func (s *Sink) Now() Time {
	if s == nil {
		return 0
	}
	return s.clock()
}

// Flight returns the sink's flight recorder (nil on a nil sink).
func (s *Sink) Flight() *Flight {
	if s == nil {
		return nil
	}
	return s.rec
}

// hist returns the named histogram from m, creating it on first use.
func (s *Sink) hist(m map[string]*Hist, name string) *Hist {
	h := m[name]
	if h == nil {
		h = newHist()
		m[name] = h
	}
	return h
}

// HookHist returns the wall-clock dispatch-latency histogram for a
// hook site (created on first use).
func (s *Sink) HookHist(site string) *Hist {
	if s == nil {
		return nil
	}
	return s.hist(s.hookNS, site)
}

// EvalHist returns the VM-steps-per-evaluation histogram for a monitor.
func (s *Sink) EvalHist(monitor string) *Hist {
	if s == nil {
		return nil
	}
	return s.hist(s.evalSteps, monitor)
}

// --- typed instrumentation points ------------------------------------

// HookFire records one kernel hook-site firing: the fire event (Value =
// first hook argument) and the global counter. The kernel calls this
// before dispatching the site's callbacks, so the fire event precedes
// the evaluations it triggers in the flight recorder; the dispatch cost
// of the fires the kernel samples arrives afterwards in the site's
// HookHist.
//
//guardrails:hotpath
func (s *Sink) HookFire(at Time, site string, arg float64) {
	if s == nil {
		return
	}
	s.Counters.HookFires.Inc()
	s.rec.Record(Event{At: at, Kind: KindHookFire, Subject: site, Value: arg})
}

// MonitorLoad records one monitor program load, split by whether the
// image arrived verified (proven trap-free, by Verify or a checked
// certificate) or unverified (counted as guarded: only the
// interpreter's runtime guards stand behind it). Counter-only by design —
// loads are configuration events, not flight-recorder traffic.
func (s *Sink) MonitorLoad(monitor string, proven bool) {
	if s == nil {
		return
	}
	if proven {
		s.Counters.ProvenLoads.Inc()
	} else {
		s.Counters.GuardedLoads.Inc()
	}
}

// Deployment records the outcome of a whole-deployment admission test
// (kernel.AdmitDeployment): admitted, or rejected because a hook site's
// aggregate certified cost exceeded its budget. Counter-only, like
// MonitorLoad — admissions are configuration events.
func (s *Sink) Deployment(admitted bool) {
	if s == nil {
		return
	}
	if admitted {
		s.Counters.DeployAdmitted.Inc()
	} else {
		s.Counters.DeployRejected.Inc()
	}
}

// HookDispatched charges the wall-clock cost of one completed hook
// dispatch (all callbacks at the site) to the site's latency histogram.
// The kernel holds the site's HookHist and observes into it directly;
// this is the same call for a caller that has only the name.
func (s *Sink) HookDispatched(site string, wallNS float64) {
	s.HookHist(site).Observe(wallNS)
}

// Eval is EvalOn for a caller that has only the monitor's name: it
// looks the step histogram up first.
func (s *Sink) Eval(at Time, monitor string, steps uint64, held bool) {
	s.EvalOn(s.EvalHist(monitor), at, monitor, steps, held)
}

// EvalOn records one monitor evaluation at its trigger time. h is the
// monitor's EvalHist on this sink, which the monitor runtime resolves
// once per (monitor, sink) instead of per evaluation. steps is the
// evaluation's VM instruction count; it doubles as the event's virtual
// duration (1 step = 1ns) so evaluations have width on a timeline. A
// violated evaluation additionally records a violation event.
//
//guardrails:hotpath
func (s *Sink) EvalOn(h *Hist, at Time, monitor string, steps uint64, held bool) {
	if s == nil {
		return
	}
	s.Counters.Evals.Inc()
	s.Counters.VMSteps.Add(steps)
	h.Observe(float64(steps))
	s.rec.Record(Event{At: at, Dur: Time(steps), Kind: KindEval, Subject: monitor, Value: float64(steps)})
	if !held {
		s.Counters.Violations.Inc()
		s.rec.Record(Event{At: at, Kind: KindViolation, Subject: monitor})
	}
}

// ActionsFired records one acting evaluation: a violation at or past
// its hysteresis streak, outside shadow (the monitor's ActionsFired).
func (s *Sink) ActionsFired(at Time, monitor string) {
	if s == nil {
		return
	}
	s.Counters.ActionsFired.Inc()
}

// Action records one action dispatch reaching its backend. ok reports
// whether the backend (and any injected fault) succeeded.
func (s *Sink) Action(at Time, monitor, action string, attempt int, ok bool) {
	if s == nil {
		return
	}
	s.Counters.ActionDispatches.Inc()
	if !ok {
		s.Counters.ActionErrors.Inc()
	}
	s.rec.Record(Event{At: at, Kind: KindAction, Subject: monitor, Detail: action, Value: float64(attempt)})
}

// ActionRetry records a failed dispatch being scheduled for retry.
func (s *Sink) ActionRetry(at Time, monitor, action string, attempt int) {
	if s == nil {
		return
	}
	s.Counters.Retries.Inc()
	s.rec.Record(Event{At: at, Kind: KindActionRetry, Subject: monitor, Detail: action, Value: float64(attempt)})
}

// DeadLetter records an action exhausting its retries.
func (s *Sink) DeadLetter(at Time, monitor, action string) {
	if s == nil {
		return
	}
	s.Counters.DeadLetters.Inc()
	s.rec.Record(Event{At: at, Kind: KindDeadLetter, Subject: monitor, Detail: action})
}

// Fault records a monitor fault (VM trap, corrupt load, injection).
func (s *Sink) Fault(at Time, monitor, kind string) {
	if s == nil {
		return
	}
	s.Counters.Faults.Inc()
	s.rec.Record(Event{At: at, Kind: KindFault, Subject: monitor, Detail: kind})
}

// FlightWindowTruncated counts one window read the flight ring could
// not cover (EventsSince reported truncation) — the reader fell back
// to counter deltas.
func (s *Sink) FlightWindowTruncated() {
	if s == nil {
		return
	}
	s.Counters.FlightWindowTruncated.Inc()
}

// Transition records a degradation-ladder move: kind must be one of
// KindQuarantine, KindRearm, KindShadowEnter, KindShadowExit.
func (s *Sink) Transition(at Time, monitor string, kind Kind, reason string) {
	if s == nil {
		return
	}
	switch kind {
	case KindQuarantine:
		s.Counters.Quarantines.Inc()
	case KindRearm:
		s.Counters.Rearms.Inc()
	case KindShadowEnter:
		s.Counters.ShadowDemotions.Inc()
	case KindShadowExit:
		s.Counters.ShadowPromotions.Inc()
	}
	s.rec.Record(Event{At: at, Kind: kind, Subject: monitor, Detail: reason})
}

// --- rollout control plane ---------------------------------------------
//
// Rollout events carry the target generation as their Value and record
// on a per-generation lane ("gen<N>"), so a trace of a staged rollout
// shows each generation's shadow/canary/fleet lifetime as its own
// timeline row.

// genLane renders the per-generation trace lane name.
func genLane(gen uint64) string { return fmt.Sprintf("gen%d", gen) }

// RolloutPhase records a staged rollout entering a phase (admitting,
// shadow, canary, ...) for the given candidate generation.
func (s *Sink) RolloutPhase(at Time, gen uint64, phase, detail string) {
	if s == nil {
		return
	}
	d := phase
	if detail != "" {
		d += ": " + detail
	}
	s.rec.Record(Event{At: at, Kind: KindRolloutPhase, Subject: genLane(gen), Detail: d, Value: float64(gen)})
}

// Promotion records a candidate generation going fleet-wide.
func (s *Sink) Promotion(at Time, gen uint64) {
	if s == nil {
		return
	}
	s.Counters.RolloutPromotions.Inc()
	s.rec.Record(Event{At: at, Kind: KindPromotion, Subject: genLane(gen), Value: float64(gen)})
}

// Rollback records a rollout aborting back to the last-good generation.
// gen is the generation rolled back TO (the one that stays active).
func (s *Sink) Rollback(at Time, gen uint64, reason string) {
	if s == nil {
		return
	}
	s.Counters.RolloutRollbacks.Inc()
	s.rec.Record(Event{At: at, Kind: KindRollback, Subject: genLane(gen), Detail: reason, Value: float64(gen)})
}

// AdmitRetry records a transient deployment-admission failure being
// retried by the rollout control plane.
func (s *Sink) AdmitRetry(at Time, gen uint64, attempt int, reason string) {
	if s == nil {
		return
	}
	s.Counters.RolloutAdmitRetries.Inc()
	s.rec.Record(Event{At: at, Kind: KindRolloutPhase, Subject: genLane(gen),
		Detail: fmt.Sprintf("admission retry %d: %s", attempt, reason), Value: float64(gen)})
}

// BreakglassEvent records an operator quarantining (engaged=true) or
// releasing (engaged=false) a guardrail fleet-wide. mode is "shadow" or
// "disable".
func (s *Sink) BreakglassEvent(at Time, guardrail, mode string, engaged bool) {
	if s == nil {
		return
	}
	detail := mode
	if engaged {
		s.Counters.Breakglass.Inc()
	} else {
		s.Counters.BreakglassReleases.Inc()
		detail = "release: " + mode
	}
	s.rec.Record(Event{At: at, Kind: KindBreakglass, Subject: guardrail, Detail: detail})
}

// GCPause records an SSD chip garbage-collection pause beginning at
// start and lasting dur.
func (s *Sink) GCPause(start, dur Time, device string) {
	if s == nil {
		return
	}
	s.Counters.GCPauses.Inc()
	s.rec.Record(Event{At: start, Dur: dur, Kind: KindGCPause, Subject: device})
}

// Failover records a replica leaving (alive=false) or rejoining service.
func (s *Sink) Failover(at Time, device string, alive bool) {
	if s == nil {
		return
	}
	s.Counters.Failovers.Inc()
	v := 0.0
	detail := "down"
	if alive {
		v, detail = 1, "up"
	}
	s.rec.Record(Event{At: at, Kind: KindFailover, Subject: device, Detail: detail, Value: v})
}

// IO records one device I/O completion with its simulated latency.
// Only the histogram and counters are touched — per-I/O ring events
// would evict everything else from the flight recorder.
func (s *Sink) IO(device string, latNS Time, write bool) {
	if s == nil {
		return
	}
	if write {
		s.Counters.IOWrites.Inc()
	} else {
		s.Counters.IOReads.Inc()
	}
	s.hist(s.ioNS, device).Observe(float64(latNS))
}

// StoreLoad counts one feature-store read.
//
//guardrails:hotpath
func (s *Sink) StoreLoad() {
	if s == nil {
		return
	}
	s.Counters.StoreLoads.Inc()
}

// StoreSave counts one feature-store write.
//
//guardrails:hotpath
func (s *Sink) StoreSave() {
	if s == nil {
		return
	}
	s.Counters.StoreSaves.Inc()
}
