// Package provenance captures per-decision "why" records for the
// guardrail runtime: every monitor fault, rule violation, and rollout
// rollback gets a causal record — the feature values the rule LOADed,
// the branch path the VM took, the actions it emitted or suppressed,
// and the verifier proof it executed under — while healthy evaluations
// are sampled head-based per monitor so the hot path stays within a
// strict overhead budget.
//
// A Recorder belongs to the goroutine that fires the kernel its runtime
// is attached to (DESIGN.md, "Ownership"): that goroutine commits with
// plain stores, and everyone else reads the ring on the owner (in a
// kernel event or a pool barrier callback) or after it has stopped.
// Besides that:
//
//   - a nil *Recorder is a valid recorder whose every method is a
//     cheap no-op, so instrumentation sites need no conditionals and
//     the disabled hot path allocates nothing;
//   - records flow through one bounded ring per runtime, like the
//     flight recorder (a sharded pool gives every shard its own);
//   - capture itself is allocation-free: monitors fill a reusable
//     scratch Record with fixed inline arrays and Commit copies it
//     into the preallocated ring.
//
// Reconciliation invariant: always-on kinds match the counters
// exactly. Every telemetry violation increments produces one
// KindViolation record, every monitor fault one KindFault record, and
// every rollout rollback one KindRollback record.
package provenance

// Kind classifies a decision record.
type Kind uint8

const (
	// KindEval is a sampled healthy evaluation (the rule held).
	KindEval Kind = iota
	// KindViolation is an evaluation whose rule did not hold. Always
	// recorded.
	KindViolation
	// KindFault is a monitor fault: a VM trap, a corrupt feature read,
	// an injected evaluation fault, or an action dispatch failure fed
	// to the breaker. Always recorded, one per fault.
	KindFault
	// KindGate is a rollout promotion gate scored over its window
	// (pass or fail), with both lanes attached.
	KindGate
	// KindRollback is a rollout auto- or operator-rollback. Always
	// recorded.
	KindRollback

	numKinds
)

var kindNames = [numKinds]string{"eval", "violation", "fault", "gate", "rollback"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Inline capture capacities. Records are fixed-size so the scratch
// fill and the ring store never allocate; overflow sets the matching
// Truncated flag instead of growing.
const (
	// MaxFeatures bounds the feature reads kept per record.
	MaxFeatures = 16
	// MaxBranches bounds the VM branch decisions kept per record
	// (matches vm.TraceCap).
	MaxBranches = 32
	// MaxActions bounds the action outcomes kept per record.
	MaxActions = 8
)

// FeatureRead is one LOAD observed during an evaluation.
type FeatureRead struct {
	// Key is the feature-store cell name (interned; referencing it
	// allocates nothing).
	Key string
	// Value is what the rule actually computed with — after NaN
	// patching, if any.
	Value float64
	// Patched marks a corrupt (NaN) read served from the last known
	// good value.
	Patched bool
	// Global marks a cross-shard aggregate snapshot (a *_global cell
	// or the fs_epoch stamp).
	Global bool
}

// BranchDecision is one conditional jump the VM resolved.
type BranchDecision struct {
	PC    int32
	Taken bool
}

// ActionOutcome is one action the evaluation emitted — or would have,
// had it not been suppressed.
type ActionOutcome struct {
	// Name is the rendered action ("REPORT", "SAVE(ml_enabled)", ...).
	Name string
	// Outcome is "ok", "failed", "retry", "dead-letter", or
	// "suppressed" (shadow / act-gate / hysteresis streak incomplete).
	Outcome string
}

// Window is one subject's telemetry lane over a rollout gate window,
// attached to KindGate records so an operator can see the exact
// numbers the gate scored.
type Window struct {
	Evals      uint64
	Violations uint64
	Faults     uint64
	Dispatches uint64
	Failures   uint64
	Steps      float64
}

// Record is one decision record. The inline arrays are capped; only
// the first N* entries are meaningful. Records are plain values —
// copying one copies the whole capture.
type Record struct {
	// Seq is the recorder-assigned sequence number.
	Seq uint64
	// At is the simulated time of the decision (the trigger time for
	// evaluations, the fault/rollback time otherwise).
	At int64

	Kind Kind
	// Monitor is the deciding monitor's loaded name (candidates carry
	// their versioned name@v<gen> form); Gen is its deployment
	// generation under that name.
	Monitor string
	Gen     int
	// Site is the triggering hook site ("" for timer and dependency
	// triggers); Arg is the trigger argument the rule saw in r0.
	Site string
	Arg  float64

	// Held reports whether the rule held; Shadow whether action
	// effects were suppressed, with ShadowReason saying why
	// ("forced-shadow", "act-gate").
	Held         bool
	Shadow       bool
	ShadowReason string
	// Steps is the evaluation's VM instruction count.
	Steps uint64

	// FaultKind is the stable fault marker ("div-trap",
	// "corrupt-load", "injected-trap", "action-failed", ...) on
	// KindFault records.
	FaultKind string

	// Verifier proof metadata the evaluation executed under.
	TrapFree  bool
	DivProven bool
	MaxSteps  int

	NFeatures         int
	Features          [MaxFeatures]FeatureRead
	FeaturesTruncated bool

	NBranches         int
	Branches          [MaxBranches]BranchDecision
	BranchesTruncated bool

	NActions         int
	Actions          [MaxActions]ActionOutcome
	ActionsTruncated bool

	// Rollout provenance (KindGate, KindRollback). Stage is "shadow"
	// or "canary"; GateReason is "" for a passed gate; GateSource says
	// whether the window was scored from the flight recorder
	// ("flight") or from monitor-stats deltas after the ring wrapped
	// ("stats"). Reason carries the rollback reason.
	Stage      string
	GateReason string
	GateSource string
	Reason     string
	Cand       Window
	Inc        Window
}

// AddFeature appends one feature read, setting the truncation flag on
// overflow.
func (r *Record) AddFeature(key string, value float64, patched, global bool) {
	if r.NFeatures >= MaxFeatures {
		r.FeaturesTruncated = true
		return
	}
	r.Features[r.NFeatures] = FeatureRead{Key: key, Value: value, Patched: patched, Global: global}
	r.NFeatures++
}

// AddAction appends one action outcome, setting the truncation flag on
// overflow.
func (r *Record) AddAction(name, outcome string) {
	if r.NActions >= MaxActions {
		r.ActionsTruncated = true
		return
	}
	r.Actions[r.NActions] = ActionOutcome{Name: name, Outcome: outcome}
	r.NActions++
}

// Recorder is one runtime's provenance lane: a bounded ring of
// decision records plus the sampling policy. All methods are safe on a
// nil receiver (no-ops / zero values), so a runtime without provenance
// attached pays only a nil test per site.
type Recorder struct {
	healthyEvery uint64

	ring []Record
	head int // next write slot
	size int
	seq  uint64 // records ever committed; the last one's Seq
}

// DefaultHealthyEvery is the default healthy-evaluation sampling
// stride: 1 in N healthy fires is kept (violations and faults are
// always kept).
const DefaultHealthyEvery = 128

// New returns a recorder retaining the last capacity records, keeping
// 1 in healthyEvery healthy evaluations (<= 0 means drop all healthy
// fires; violations, faults, gates, and rollbacks are always kept).
func New(capacity, healthyEvery int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	r := &Recorder{ring: make([]Record, capacity)}
	if healthyEvery > 0 {
		r.healthyEvery = uint64(healthyEvery)
	}
	return r
}

// HealthyEvery returns the healthy-fire sampling stride (0 = drop all
// healthy fires).
func (r *Recorder) HealthyEvery() uint64 {
	if r == nil {
		return 0
	}
	return r.healthyEvery
}

// Commit copies rec into the ring, stamping the next sequence number
// onto it. The caller's record is mutated (stamped) but not retained.
//
//guardrails:hotpath
func (r *Recorder) Commit(rec *Record) {
	if r == nil {
		return
	}
	r.seq++
	rec.Seq = r.seq
	r.ring[r.head] = *rec
	r.head = (r.head + 1) % len(r.ring)
	if r.size < len(r.ring) {
		r.size++
	}
}

// Total returns how many records were ever committed (retained or
// evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Len returns the retained record count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Records returns the retained records, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, r.size)
	start := r.head - r.size
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.size; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// ForMonitor returns the last n retained records for one monitor
// (matched against the loaded name, which for rollout candidates is
// the versioned name@v<gen> form), oldest first. n <= 0 returns all.
func (r *Recorder) ForMonitor(name string, n int) []Record {
	all := r.Records()
	var out []Record
	for _, rec := range all {
		if rec.Monitor == name {
			out = append(out, rec)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
