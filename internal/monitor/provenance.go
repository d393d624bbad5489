package monitor

import (
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/provenance"
	"guardrails/internal/vm"
)

// Provenance capture. The monitor owns one reusable scratch Record and
// one reusable VM branch trace; while an evaluation is in flight
// (provLive) the VM appends branch decisions and LoadCell/action sites
// append their observations. At the end the
// scratch is committed to the runtime's recorder if the decision is
// always-on (violation) or admitted by the per-monitor head-based
// healthy sample; monitor faults commit their own copy immediately in
// recordFault so every Stats.Traps increment has exactly one
// KindFault record. Capture is allocation-free: every string stored is
// interned (monitor name, symbol-table keys) or a compile-time
// constant, and Commit copies into the recorder's preallocated ring.

// provInit prefills the scratch record's static fields (monitor name,
// verifier proof metadata) and the per-cell *_global classification at
// load time, so the per-evaluation provBegin touches only what changes
// between evaluations.
func (m *Monitor) provInit() {
	r := &m.prov
	r.Monitor = m.c.Name
	r.Gen = m.gen // immutable per Monitor: updates construct a new one
	meta := m.c.Program.Meta
	r.TrapFree = meta.TrapFree
	r.DivProven = meta.DivProven
	r.MaxSteps = meta.MaxSteps
	m.provSyms = m.c.Program.Symbols
	m.provGlobal = make([]bool, len(m.provSyms))
	for i, sym := range m.provSyms {
		m.provGlobal[i] = featurestore.IsGlobalKey(sym)
	}
}

// provBegin starts capture for the in-flight evaluation and installs
// the branch trace on the VM. The scratch is not fully Reset per
// evaluation (that is a measurable fraction of a steady-state eval):
// static fields were prefilled by provInit, Commit stamps Seq, the
// rollout-only fields are never touched by a
// monitor, and every other field (At, Site, Held, Kind, ...) is
// written by whichever commit path runs (provEnd for evaluations,
// provFault for faults) — so only the state appended to during the
// run is cleared here.
func (m *Monitor) provBegin(arg float64, shadow bool, shadowReason string) {
	r := &m.prov
	r.NFeatures, r.FeaturesTruncated = 0, false
	r.NActions, r.ActionsTruncated = 0, false
	r.Arg = arg
	// Shadow state is stable across steady-state evaluations; compare
	// before storing so the common case does not dirty the fields.
	if r.Shadow != shadow || r.ShadowReason != shadowReason {
		r.Shadow, r.ShadowReason = shadow, shadowReason
	}
	m.provTrace.N, m.provTrace.Truncated = 0, false
	if m.machine.Trace == nil {
		m.machine.Trace = &m.provTrace
	}
	m.provLive = true
}

// provAbandon tears down an in-flight capture without committing an
// evaluation record — the trap paths, whose fault record recordFault
// already committed. The branch trace stays installed on the machine:
// the next provBegin resets it, nothing reads it in between, and
// detaching would put an extra store on every evaluation.
func (m *Monitor) provAbandon() {
	m.provLive = false
}

// provEnd finishes the in-flight capture and commits it if the
// decision is a violation (always-on) or admitted by the healthy
// sample (1 in HealthyEvery healthy fires per monitor, head-based on
// the monitor's own healthy-evaluation counter so a seeded run always
// samples the same fires).
func (m *Monitor) provEnd(rec *provenance.Recorder, held bool, steps uint64) {
	if !m.provLive {
		return
	}
	m.provLive = false
	// Decide admission before finishing the capture: the common case is
	// a healthy fire outside the sample, and it should pay nothing
	// beyond the countdown (a decrement, not a modulo — a 64-bit divide
	// is measurable at this grain).
	if held {
		every := rec.HealthyEvery()
		if every == 0 {
			return
		}
		if m.provSkip != 0 {
			m.provSkip--
			return
		}
		m.provSkip = every - 1
	}
	r := &m.prov
	m.provSyncTrace(r)
	r.At = int64(m.trigAt)
	r.Site = m.provSite
	r.Held = held
	r.Steps = steps
	if held {
		r.Kind = provenance.KindEval
	} else {
		r.Kind = provenance.KindViolation
	}
	rec.Commit(r)
}

// provSyncTrace copies the VM branch trace into the record.
func (m *Monitor) provSyncTrace(r *provenance.Record) {
	t := &m.provTrace
	n := t.N
	if n > provenance.MaxBranches {
		n = provenance.MaxBranches
	}
	for i := 0; i < n; i++ {
		r.Branches[i] = provenance.BranchDecision{PC: t.PC[i], Taken: t.Taken[i]}
	}
	r.NBranches = n
	r.BranchesTruncated = t.Truncated
}

// provFault commits one KindFault record for a recordFault call. A
// fault during an in-flight evaluation carries everything captured so
// far (features read, branch path, proof metadata); a fault outside
// one (a late action-retry failure) carries the minimal header.
func (m *Monitor) provFault(rec *provenance.Recorder, kind string, now kernel.Time) {
	if m.provLive {
		f := m.prov
		m.provSyncTrace(&f)
		f.Kind = provenance.KindFault
		f.FaultKind = kind
		f.At = int64(now)
		f.Site = m.provSite
		// provBegin's slim reset leaves these to the commit paths: the
		// snapshot may carry them from the previous committed record.
		f.Held, f.Steps = false, 0
		rec.Commit(&f)
		return
	}
	var f provenance.Record
	f.Kind = provenance.KindFault
	f.FaultKind = kind
	f.At = int64(now)
	f.Monitor = m.c.Name
	f.Gen = m.Generation()
	rec.Commit(&f)
}

// provFeature records one feature read (called from LoadCell while
// capture is live). The symbol-table key is interned, so storing it
// allocates nothing; the *_global / fs_epoch classification marking
// cross-shard epoch snapshots was precomputed per cell by provInit so
// the hot path does no string work.
func (m *Monitor) provFeature(i int32, v float64, patched bool) {
	m.prov.AddFeature(m.provSyms[i], v, patched, m.provGlobal[i])
}

// provAction records one action outcome against the in-flight capture.
// Only first attempts are recorded here — retries dispatch from timers
// after the evaluation finished and surface through the telemetry
// retry/dead-letter counters and, on terminal failure, recordFault.
func (m *Monitor) provAction(name, outcome string, attempt int) {
	if attempt != 0 || !m.provLive {
		return
	}
	m.prov.AddAction(name, outcome)
}

func init() {
	if vm.TraceCap != provenance.MaxBranches {
		panic("monitor: vm.TraceCap and provenance.MaxBranches out of sync")
	}
}
