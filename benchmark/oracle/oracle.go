// Package oracle computes what every benchmark workload must produce,
// independently of the code under test: a plain-Go evaluator of the
// generated rules over the generated feature schedule (no compile, no
// vm, no monitor), and set comparison of checker findings against the
// ground truth the generator planted. The benchmark's failed_share is
// the share of operations on which the system and this package differ.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"guardrails/benchmark/gen"
)

// Eval evaluates an expression against a store. Unknown keys read 0,
// like the feature store; x/0 is 0, the spec language's total division.
func Eval(e *gen.Expr, store map[string]float64) float64 {
	switch e.Op {
	case 'k':
		return store[e.Key]
	case 'c':
		return e.C
	}
	l, r := Eval(e.L, store), Eval(e.R, store)
	switch e.Op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	default:
		if r == 0 {
			return 0
		}
		return l / r
	}
}

// Holds evaluates one rule.
func Holds(r gen.Rule, store map[string]float64) bool {
	l, b := Eval(r.Left, store), Eval(r.Bound, store)
	switch r.Cmp {
	case "<=":
		return l <= b
	case "<":
		return l < b
	case ">=":
		return l >= b
	default:
		return l > b
	}
}

// Counts is one guardrail's expected (or observed) activity.
type Counts struct {
	Evals, Violations, ActionsFired uint64
}

// FireOutcome is the observable outcome of a fire workload: per
// guardrail counts, REPORT totals, and the final feature-store cells.
// The oracle produces the expected one; the harness fills the observed
// one from monitor.Stats, the report log and the store.
type FireOutcome struct {
	Counts  map[string]Counts
	Reports uint64
	// LastReport is the value list of the most recent REPORT (nil when
	// none was made).
	LastReport []float64
	Cells      map[string]float64
}

// sim is the oracle's model of the guardrail runtime's visible
// semantics: guardrails on a site evaluate in load order; a violated
// conjunction performs its SAVEs in order, then its REPORT; a write to a
// watched key evaluates the watcher at once.
type sim struct {
	in    *gen.FireInputs
	store map[string]float64
	out   *FireOutcome
	// dirty is set when a write changes the store.
	dirty bool
}

func (s *sim) evaluate(g *gen.Guardrail) {
	c := s.out.Counts[g.Name]
	c.Evals++
	held := true
	for _, r := range g.Rules {
		if !Holds(r, s.store) {
			held = false
			break
		}
	}
	if held {
		s.out.Counts[g.Name] = c
		return
	}
	c.Violations++
	c.ActionsFired++
	s.out.Counts[g.Name] = c
	// Action values are computed from the store as it stands when each
	// action runs, in declaration order.
	for _, sv := range g.Saves {
		s.save(sv.Key, Eval(sv.Value, s.store))
	}
	if g.HasReport {
		s.out.Reports++
		vals := make([]float64, len(g.Report))
		for i, a := range g.Report {
			vals[i] = Eval(a, s.store)
		}
		s.out.LastReport = vals
	}
}

func (s *sim) save(key string, v float64) {
	if old, ok := s.store[key]; !ok || old != v {
		s.dirty = true
	}
	s.store[key] = v
	if s.in.Watcher != nil && key == s.in.WatchKey {
		s.evaluate(s.in.Watcher)
	}
}

func (s *sim) fire() {
	for _, g := range s.in.Guardrails {
		s.evaluate(g)
	}
}

// Fire plays the schedule and returns the expected outcome. Within a
// batch the subsystem writes nothing between fires, so once one fire
// changes no cell every remaining fire of the batch repeats it: the
// oracle simulates fires one by one until that fixed point and
// multiplies the last fire's counts for the rest.
func Fire(in *gen.FireInputs) *FireOutcome {
	s := &sim{in: in, store: map[string]float64{}, out: &FireOutcome{Counts: map[string]Counts{}}}
	for _, g := range in.Guardrails {
		s.out.Counts[g.Name] = Counts{}
	}
	if in.Watcher != nil {
		s.out.Counts[in.Watcher.Name] = Counts{}
	}
	for b := 0; b < in.Batches; b++ {
		for i, v := range in.Row(b) {
			// The subsystem's own writes can wake the watcher too.
			s.save(in.Keys[i], v)
		}
		for f := 0; f < in.FiresPerBatch; f++ {
			countsBefore := copyCounts(s.out.Counts)
			reportsBefore := s.out.Reports
			s.dirty = false
			s.fire()
			if s.dirty {
				continue
			}
			rest := uint64(in.FiresPerBatch - 1 - f)
			for name, c := range s.out.Counts {
				p := countsBefore[name]
				c.Evals += (c.Evals - p.Evals) * rest
				c.Violations += (c.Violations - p.Violations) * rest
				c.ActionsFired += (c.ActionsFired - p.ActionsFired) * rest
				s.out.Counts[name] = c
			}
			s.out.Reports += (s.out.Reports - reportsBefore) * rest
			break
		}
	}
	s.out.Cells = s.store
	return s.out
}

func copyCounts(m map[string]Counts) map[string]Counts {
	out := make(map[string]Counts, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// closeEnough compares two cell values: exact, or within a relative
// 1e-9 to allow the compiler to reassociate float arithmetic.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

// Verdict is the result of comparing an observed outcome with the
// expected one: how many operations came out wrong, and why.
type Verdict struct {
	Failed int64
	Notes  []string
}

func (v *Verdict) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	v.Failed += n
	if len(v.Notes) < 16 {
		v.Notes = append(v.Notes, fmt.Sprintf(format, args...))
	}
}

// Check adds one named exact-count comparison to the verdict: every
// unit of difference is one operation with a wrong outcome.
func (v *Verdict) Check(name string, got, want uint64) {
	v.fail(absDiff(got, want), "%s: got %d, want %d", name, got, want)
}

// CheckValue adds one named value comparison (one failed operation on a
// mismatch).
func (v *Verdict) CheckValue(name string, got, want float64) {
	if !closeEnough(got, want) {
		v.fail(1, "%s: got %v, want %v", name, got, want)
	}
}

// CompareFire counts the divergences between an observed fire outcome
// and the expected one. Each unit of count difference, each differing
// cell and a differing last report is one failed operation.
func CompareFire(got, want *FireOutcome) Verdict {
	var v Verdict
	names := make([]string, 0, len(want.Counts))
	for n := range want.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, w := got.Counts[n], want.Counts[n]
		v.Check(n+" evals", g.Evals, w.Evals)
		v.Check(n+" violations", g.Violations, w.Violations)
		v.Check(n+" actions_fired", g.ActionsFired, w.ActionsFired)
	}
	v.Check("reports", got.Reports, want.Reports)
	if len(got.LastReport) != len(want.LastReport) {
		v.fail(1, "last report: got %v, want %v", got.LastReport, want.LastReport)
	} else {
		for i := range want.LastReport {
			v.CheckValue(fmt.Sprintf("last report value %d", i), got.LastReport[i], want.LastReport[i])
		}
	}
	keys := make([]string, 0, len(want.Cells))
	for k := range want.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v.CheckValue("cell "+k, got.Cells[k], want.Cells[k])
	}
	return v
}

// CompareFindings compares the checker's verdicts with the planted
// ground truth, monitor by monitor: a monitor fails when the set of
// warning findings anchored to it, or the status of a property it owns,
// differs from what the generator planted. proved maps each declared
// property (source form) to whether the checker returned PROVED.
func CompareFindings(m *gen.Manifest, findings []gen.Finding, proved map[string]bool) Verdict {
	want := map[string][]string{}
	for _, f := range m.Findings {
		want[f.Guardrail] = append(want[f.Guardrail], f.Key())
	}
	got := map[string][]string{}
	seen := map[string]bool{}
	for _, f := range findings {
		// The checker may report one finding once per explored state;
		// the verdict is the set.
		if k := f.Key(); !seen[k] {
			seen[k] = true
			got[f.Guardrail] = append(got[f.Guardrail], k)
		}
	}
	var v Verdict
	names := map[string]bool{}
	for n := range want {
		names[n] = true
	}
	for n := range got {
		names[n] = true
	}
	failed := map[string]bool{}
	for n := range names {
		w, g := want[n], got[n]
		sort.Strings(w)
		sort.Strings(g)
		if fmt.Sprint(w) != fmt.Sprint(g) {
			failed[n] = true
			v.fail(1, "guardrail %s: findings %v, want %v", n, g, w)
		}
	}
	for _, p := range m.Proved {
		owner := m.PropertyOwner[p]
		if !proved[p] && !failed[owner] {
			failed[owner] = true
			v.fail(1, "guardrail %s: property %q not PROVED", owner, p)
		}
	}
	for p := range proved {
		if _, planted := m.PropertyOwner[p]; !planted {
			v.fail(1, "property %q was not planted", p)
		}
	}
	return v
}
