package vm

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Witness machinery: bounded counterexample synthesis for the static
// analyzers. Where Verify and the interference checks prove "may"
// claims by over-approximation, a witness turns one such claim into
// evidence: a concrete feature assignment that, replayed through the
// real interpreter (not the abstract semantics), reproduces the flagged
// behavior. Diagnostics carrying a replayed witness are CONFIRMED;
// when the bounded search exhausts its candidate assignments without
// reproducing the behavior the claim stands but is downgraded to
// PLAUSIBLE — an over-approximation the operator may triage later,
// never a silently dropped finding.

// WitnessStatus annotates a diagnostic with the outcome of witness
// synthesis.
type WitnessStatus string

// Witness statuses. The zero value means synthesis was not attempted
// (the diagnostic class has no replayable semantics, or witnesses were
// not requested).
const (
	// WitnessConfirmed: a concrete input replayed through the real VM
	// reproduces the flagged violation; the diagnostic is not a false
	// positive.
	WitnessConfirmed WitnessStatus = "CONFIRMED"
	// WitnessPlausible: no witness was found within the search bounds.
	// The static claim stands (the analysis is sound) but may be an
	// artifact of over-approximation.
	WitnessPlausible WitnessStatus = "PLAUSIBLE"
)

// Witness is the replayable evidence attached to a confirmed
// diagnostic: the concrete inputs and a step-by-step account of the
// replay that reproduced the violation.
type Witness struct {
	// Inputs is the concrete feature assignment (key → value).
	Inputs map[string]float64 `json:"inputs"`
	// Steps narrates the replay in execution order.
	Steps []string `json:"steps"`
}

// String renders "inputs {k=v, …}: step; step; …".
func (w *Witness) String() string {
	keys := make([]string, 0, len(w.Inputs))
	for k := range w.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, w.Inputs[k])
	}
	return fmt.Sprintf("inputs {%s}: %s",
		strings.Join(parts, ", "), strings.Join(w.Steps, "; "))
}

// StoreEvent is one feature-store write a replay observed.
type StoreEvent struct {
	// Key is the written feature key (resolved via the symbol table).
	Key string
	// Val is the written value.
	Val float64
}

// CallEvent is one Report/Action helper call a replay observed.
type CallEvent struct {
	Helper HelperID
	Arg    float64 // r1 at the call (violation code / action index)
}

// Replay is the observed outcome of one program run against a concrete
// input assignment on the real interpreter.
type Replay struct {
	// R0 is the exit value; by the compiler's convention 0 means the
	// rule set was violated (the action path ran).
	R0 float64
	// Err is the trap, if the run failed.
	Err error
	// Violated reports a clean run that returned 0.
	Violated bool
	// Stores lists the feature-store writes, in execution order.
	Stores []StoreEvent
	// Calls lists the Report/Action helper calls, in execution order.
	Calls []CallEvent
	// Trace is the conditional-branch path the run took.
	Trace BranchTrace
}

// FinalStore returns the last value written to key during the replay.
func (r *Replay) FinalStore(key string) (float64, bool) {
	for i := len(r.Stores) - 1; i >= 0; i-- {
		if r.Stores[i].Key == key {
			return r.Stores[i].Val, true
		}
	}
	return 0, false
}

// replayEnv adapts a concrete assignment to the Env interface with
// deterministic helper semantics mirroring the monitor runtime: Now is
// a fixed instant, Sqrt/Log2 follow the helper contracts, and
// Report/Action succeed and are recorded instead of dispatched.
type replayEnv struct {
	p    *Program
	vals map[int32]float64
	now  float64
	rec  *Replay
}

func (e *replayEnv) LoadCell(i int32) float64 { return e.vals[i] }

func (e *replayEnv) StoreCell(i int32, v float64) {
	key := ""
	if int(i) < len(e.p.Symbols) {
		key = e.p.Symbols[i]
	}
	e.rec.Stores = append(e.rec.Stores, StoreEvent{Key: key, Val: v})
	// Later LOADs of the key observe the write, as against a real store.
	e.vals[i] = v
}

func (e *replayEnv) Helper(h HelperID, args *[5]float64) (float64, error) {
	switch h {
	case HelperNow:
		return e.now, nil
	case HelperReport, HelperAction:
		e.rec.Calls = append(e.rec.Calls, CallEvent{Helper: h, Arg: args[0]})
		return 0, nil
	}
	v, _ := PureHelper(h, args[0])
	return v, nil
}

// ReplayProgram runs p on the real interpreter against the concrete
// assignment (feature key → value; keys the program loads but the
// assignment omits read 0, like an unpopulated feature store) and
// returns everything the run observed. The replay is deterministic:
// HelperNow returns now for the whole run.
func ReplayProgram(p *Program, assign map[string]float64, arg, now float64) *Replay {
	rec := &Replay{}
	env := &replayEnv{p: p, vals: make(map[int32]float64, len(p.Symbols)), now: now, rec: rec}
	for cell, key := range p.Symbols {
		if v, ok := assign[key]; ok {
			env.vals[int32(cell)] = v
		}
	}
	var m Machine
	m.Trace = &rec.Trace
	rec.R0, rec.Err = m.Run(p, env, arg)
	rec.Violated = rec.Err == nil && rec.R0 == 0
	return rec
}

// Candidates proposes trial values for one feature within its declared
// interval (pass ok=false for an undeclared feature): the interval's
// endpoints and midpoint plus the common small values the bounded
// search seeds with. The list is deduplicated and every value respects
// the interval — the search never witnesses a violation with inputs the
// deployment certifies impossible.
func Candidates(iv Interval, ok bool) []float64 {
	seed := []float64{0, 1, -1, 2, 10, 100}
	if !ok || !iv.Num {
		return seed
	}
	var out []float64
	add := func(v float64) {
		if math.IsNaN(v) || v < iv.Lo || v > iv.Hi {
			return
		}
		for _, x := range out {
			if x == v {
				return
			}
		}
		out = append(out, v)
	}
	if !math.IsInf(iv.Lo, 0) {
		add(iv.Lo)
	}
	if !math.IsInf(iv.Hi, 0) {
		add(iv.Hi)
	}
	if !math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) {
		add(iv.Lo + (iv.Hi-iv.Lo)/2)
	}
	for _, v := range seed {
		add(v)
	}
	if len(out) == 0 {
		// Degenerate declared interval (e.g. [+Inf,+Inf]); try its
		// bounds as given.
		out = append(out, iv.Lo)
	}
	return out
}

// EnumAssignments drives a bounded search: it calls try with each
// assignment drawn from the Cartesian product of cands over keys (keys
// beyond the first vary fastest), stopping when try returns true or
// after budget trials. The assignment map is reused between calls — try
// must copy it if it escapes the call. Returns the number of trials and
// whether try accepted one.
func EnumAssignments(keys []string, cands map[string][]float64, budget int, try func(map[string]float64) bool) (int, bool) {
	if budget <= 0 {
		budget = 1
	}
	assign := make(map[string]float64, len(keys))
	if len(keys) == 0 {
		return 1, try(assign)
	}
	idx := make([]int, len(keys))
	trials := 0
	for {
		for i, k := range keys {
			vs := cands[k]
			if len(vs) == 0 {
				assign[k] = 0
				continue
			}
			assign[k] = vs[idx[i]]
		}
		trials++
		if try(assign) {
			return trials, true
		}
		if trials >= budget {
			return trials, false
		}
		// Odometer increment, last key fastest.
		i := len(keys) - 1
		for i >= 0 {
			n := len(cands[keys[i]])
			if n == 0 {
				n = 1
			}
			idx[i]++
			if idx[i] < n {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return trials, false
		}
	}
}

// CopyAssign snapshots a (reused) assignment map.
func CopyAssign(a map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// LoadedKeys lists the feature keys p LOADs, sorted.
func LoadedKeys(p *Program) []string { return cellKeys(p, OpLoad) }

// StoredKeys lists the feature keys p STOREs, sorted.
func StoredKeys(p *Program) []string { return cellKeys(p, OpStore) }

func cellKeys(p *Program, op Op) []string {
	set := map[string]bool{}
	for _, in := range p.Code {
		if in.Op == op && in.Cell >= 0 && int(in.Cell) < len(p.Symbols) {
			set[p.Symbols[in.Cell]] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TraceString renders a branch trace as "pc→taken" steps for witness
// narration, e.g. "branches [3↓ 7→]" (↓ = fall through, → = taken).
func TraceString(t *BranchTrace) string {
	if t.N == 0 {
		return "no branches"
	}
	var sb strings.Builder
	sb.WriteString("branches [")
	for i := 0; i < t.N; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		arrow := "↓"
		if t.Taken[i] {
			arrow = "→"
		}
		fmt.Fprintf(&sb, "%d%s", t.PC[i], arrow)
	}
	if t.Truncated {
		sb.WriteString(" …")
	}
	sb.WriteString("]")
	return sb.String()
}
