package oracle

import (
	"reflect"
	"testing"

	"guardrails/benchmark/gen"
)

func TestEvalAndHolds(t *testing.T) {
	store := map[string]float64{"a": 6, "b": 0}
	e := gen.Bin('-', gen.Bin('*', gen.Load("a"), gen.Const(0.5)), gen.Bin('/', gen.Load("a"), gen.Load("b")))
	if got := Eval(e, store); got != 3 {
		t.Errorf("a*0.5 - a/0 = %v, want 3 (x/0 is 0)", got)
	}
	if got := Eval(gen.Load("missing"), store); got != 0 {
		t.Errorf("unknown key = %v, want 0", got)
	}
	for cmp, want := range map[string]bool{"<=": true, "<": false, ">=": true, ">": false} {
		if got := Holds(gen.Rule{Left: gen.Load("a"), Cmp: cmp, Bound: gen.Const(6)}, store); got != want {
			t.Errorf("6 %s 6 = %v, want %v", cmp, got, want)
		}
	}
}

// bruteForce plays every fire one by one, without the fixed-point
// shortcut: the reference the shortcut is checked against.
func bruteForce(in *gen.FireInputs) *FireOutcome {
	s := &sim{in: in, store: map[string]float64{}, out: &FireOutcome{Counts: map[string]Counts{}}}
	for b := 0; b < in.Batches; b++ {
		for i, v := range in.Row(b) {
			s.save(in.Keys[i], v)
		}
		for f := 0; f < in.FiresPerBatch; f++ {
			s.fire()
		}
	}
	s.out.Cells = s.store
	return s.out
}

func TestFireShortcutMatchesBruteForce(t *testing.T) {
	for _, in := range []*gen.FireInputs{gen.Bare(3, "bare", 200), gen.Wide(3, 400, 0.3)} {
		if got, want := Fire(in), bruteForce(in); !reflect.DeepEqual(got, want) {
			t.Errorf("shortcut outcome %+v, brute force %+v", got, want)
		}
	}
}

func TestFireCountsOnWide(t *testing.T) {
	in := gen.Wide(9, 1000, 0.2)
	violating := uint64(0)
	for b := 0; b < in.Batches; b++ {
		if in.IsViolating(b) {
			violating++
		}
	}
	out := Fire(in)
	wide, watch := out.Counts["wide-pressure"], out.Counts["wide-watch"]
	if wide.Evals != uint64(in.Fires()) || wide.Violations != violating*gen.FiresPerBatch || wide.ActionsFired != wide.Violations {
		t.Errorf("wide counts %+v with %d violating batches", wide, violating)
	}
	// Every violating fire SAVEs throttle, and every such write wakes
	// the watcher once; it acts only when throttle exceeds its bound.
	if watch.Evals != wide.Violations || watch.Violations == 0 || watch.Violations >= watch.Evals {
		t.Errorf("watcher counts %+v", watch)
	}
	if out.Reports != wide.Violations || len(out.LastReport) != 2 {
		t.Errorf("reports %d, last %v", out.Reports, out.LastReport)
	}
}

func TestCompareFireCountsEveryDivergence(t *testing.T) {
	in := gen.Wide(9, 200, 0.2)
	want := Fire(in)
	if v := CompareFire(Fire(in), want); v.Failed != 0 {
		t.Fatalf("identical outcomes differ: %v", v.Notes)
	}
	got := Fire(in)
	c := got.Counts["wide-pressure"]
	c.Violations -= 3
	got.Counts["wide-pressure"] = c
	got.Cells[gen.KeyThrottle] += 0.5
	if v := CompareFire(got, want); v.Failed != 4 {
		t.Errorf("failed = %d, want 4 (3 violations + 1 cell): %v", v.Failed, v.Notes)
	}
}

func TestCompareFindings(t *testing.T) {
	m := gen.BuildManifest(1, gen.Ladders)
	proved := map[string]bool{}
	for _, p := range m.Proved {
		proved[p] = true
	}
	// The checker may repeat a finding once per explored state.
	found := append(append([]gen.Finding(nil), m.Findings...), m.Findings...)
	if v := CompareFindings(m, found, proved); v.Failed != 0 {
		t.Fatalf("planted truth differs from itself: %v", v.Notes)
	}
	// A missing finding, an extra one and an unproved property each fail
	// exactly the guardrail they belong to.
	missing := m.Findings[1:]
	extra := append(append([]gen.Finding(nil), m.Findings...), gen.Finding{Code: "GI006", Guardrail: "g000-rate"})
	unproved := map[string]bool{}
	for p := range proved {
		unproved[p] = p != m.Proved[0]
	}
	for name, v := range map[string]Verdict{
		"missing":  CompareFindings(m, missing, proved),
		"extra":    CompareFindings(m, extra, proved),
		"unproved": CompareFindings(m, m.Findings, unproved),
	} {
		if v.Failed != 1 {
			t.Errorf("%s: failed = %d, want 1: %v", name, v.Failed, v.Notes)
		}
	}
}
