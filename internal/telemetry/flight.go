package telemetry

import "fmt"

// Kind classifies a flight-recorder event. The taxonomy covers the
// kernel hook plane, the monitor lifecycle, the action pipeline, and
// the storage substrate — every place simulated-kernel time is spent or
// a guardrail decision is made.
type Kind uint8

// Event kinds.
const (
	// KindHookFire: a kernel hook site fired (Value = first hook arg).
	KindHookFire Kind = iota
	// KindEval: one monitor evaluation (Value = VM steps; Dur renders
	// the steps as virtual nanoseconds for timeline viewing).
	KindEval
	// KindViolation: an evaluation whose rule conjunction failed.
	KindViolation
	// KindAction: an action dispatch reached its backend (Detail names
	// the action; Value = attempt, 0 for the first try).
	KindAction
	// KindActionRetry: a failed dispatch was scheduled for retry.
	KindActionRetry
	// KindDeadLetter: an action exhausted its retries.
	KindDeadLetter
	// KindFault: a monitor fault (VM trap, corrupt load, injected).
	KindFault
	// KindQuarantine: a circuit breaker tripped.
	KindQuarantine
	// KindRearm: a quarantined monitor returned to duty.
	KindRearm
	// KindShadowEnter and KindShadowExit marked moves to and from the
	// budget shadow rung, which is gone; they keep their values so the
	// kinds after them keep theirs.
	KindShadowEnter
	KindShadowExit
	// KindGCPause: an SSD chip entered a garbage-collection pause
	// (Dur = pause length).
	KindGCPause
	// KindFailover: a storage replica left (Value=0) or rejoined
	// (Value=1) service.
	KindFailover
	// KindRolloutPhase: a staged rollout entered a phase (Detail names
	// it; Value = target generation; Subject = the generation lane).
	KindRolloutPhase
	// KindPromotion: a rollout promoted a candidate generation
	// fleet-wide (Value = new generation).
	KindPromotion
	// KindRollback: a rollout rolled back to the last-good generation
	// (Detail = reason; Value = the generation rolled back to).
	KindRollback
	// KindBreakglass: an operator quarantined a guardrail fleet-wide
	// (Detail = "shadow" or "disable").
	KindBreakglass
)

// String names the kind (stable: these appear in trace files).
func (k Kind) String() string {
	switch k {
	case KindHookFire:
		return "hook_fire"
	case KindEval:
		return "eval"
	case KindViolation:
		return "violation"
	case KindAction:
		return "action"
	case KindActionRetry:
		return "action_retry"
	case KindDeadLetter:
		return "dead_letter"
	case KindFault:
		return "fault"
	case KindQuarantine:
		return "quarantine"
	case KindRearm:
		return "rearm"
	case KindShadowEnter:
		return "shadow_enter"
	case KindShadowExit:
		return "shadow_exit"
	case KindGCPause:
		return "gc_pause"
	case KindFailover:
		return "failover"
	case KindRolloutPhase:
		return "rollout_phase"
	case KindPromotion:
		return "rollout_promotion"
	case KindRollback:
		return "rollout_rollback"
	case KindBreakglass:
		return "breakglass"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Category groups kinds into trace lanes: kernel, monitor, action,
// storage.
func (k Kind) Category() string {
	switch k {
	case KindHookFire:
		return "kernel"
	case KindEval, KindViolation, KindFault, KindQuarantine, KindRearm,
		KindShadowEnter, KindShadowExit:
		return "monitor"
	case KindAction, KindActionRetry, KindDeadLetter:
		return "action"
	case KindGCPause, KindFailover:
		return "storage"
	case KindRolloutPhase, KindPromotion, KindRollback, KindBreakglass:
		return "rollout"
	default:
		return "other"
	}
}

// Event is one flight-recorder record. Events are plain values — the
// ring stores them inline, so recording never allocates.
type Event struct {
	// Seq is the global record order (1-based, never reused). Because
	// the ring is bounded, retained events form a contiguous suffix of
	// the sequence.
	Seq uint64
	// At is the simulated start time in nanoseconds.
	At Time
	// Dur is the event's duration in simulated (or, for evaluations,
	// virtual) nanoseconds; 0 marks an instant event.
	Dur Time
	// Kind classifies the event.
	Kind Kind
	// Subject is the hook site, monitor, or device the event concerns.
	Subject string
	// Detail is optional context: an action name, a transition reason.
	Detail string
	// Value is a kind-specific payload (VM steps, hook argument, ...).
	Value float64
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("#%d @%dns %s %s", e.Seq, e.At, e.Kind, e.Subject)
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%dns", e.Dur)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Flight is the bounded flight-recorder ring: the most recent capacity
// events, overwritten oldest-first, with a total count that keeps
// advancing. It belongs to its sink's owner (see Counter): recording is
// a few plain stores and zero allocations.
type Flight struct {
	ring []Event
	head int // index of the oldest retained event
	size int
	seq  uint64
}

// NewFlight returns a recorder retaining the most recent capacity
// events.
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		panic("telemetry: flight recorder capacity must be positive")
	}
	return &Flight{ring: make([]Event, capacity)}
}

// Record appends one event, assigning its sequence number, and returns
// that number.
//
//guardrails:hotpath
func (f *Flight) Record(e Event) uint64 {
	f.seq++
	e.Seq = f.seq
	// The write slot is head+size wrapped once; both are below the
	// capacity, so a compare does what a modulo would.
	i := f.head + f.size
	if i >= len(f.ring) {
		i -= len(f.ring)
	}
	f.ring[i] = e
	if f.size < len(f.ring) {
		f.size++
	} else if f.head++; f.head == len(f.ring) {
		f.head = 0
	}
	return e.Seq
}

// Total returns how many events have ever been recorded, including
// those the ring has since overwritten.
func (f *Flight) Total() uint64 {
	return f.seq
}

// Len returns the number of retained events.
func (f *Flight) Len() int {
	return f.size
}

// Events returns the retained events in record order (ascending Seq).
func (f *Flight) Events() []Event {
	out := make([]Event, 0, f.size)
	for i := 0; i < f.size; i++ {
		out = append(out, f.ring[(f.head+i)%len(f.ring)])
	}
	return out
}

// EventsSince returns the retained events whose start time is at or
// after t, in record order — the time-windowed query rollout gates use
// to score a canary stage. Record order is not time order: a storage
// device records a GC pause at the time it will start, which may be
// later than events recorded after it. So the window is a filter over
// every retained event, not a suffix; one gate check reads it once.
//
// The window is best-effort at the ring boundary: events older than the
// ring's capacity have been overwritten, so a window reaching further
// back than the oldest retained event silently starts there. Truncated
// reports whether that happened — the oldest retained event is newer
// than t while older events had already been recorded — so a gate can
// tell "quiet window" from "window fell off the ring".
func (f *Flight) EventsSince(t Time) (events []Event, truncated bool) {
	for i := 0; i < f.size; i++ {
		if e := f.ring[(f.head+i)%len(f.ring)]; e.At >= t {
			events = append(events, e)
		}
	}
	if f.size > 0 {
		// Seq > 1 means history before the oldest retained event was
		// overwritten, and dropped events may have been in-window.
		oldest := f.ring[f.head]
		truncated = oldest.At >= t && oldest.Seq > 1
	}
	return events, truncated
}
