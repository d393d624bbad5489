package provenance

import (
	"strings"
	"testing"
)

func TestProvenanceRingWraparound(t *testing.T) {
	r := New(4, DefaultHealthyEvery)
	for i := 1; i <= 10; i++ {
		rec := Record{At: int64(i), Kind: KindViolation, Monitor: "m"}
		r.Commit(&rec)
	}
	if r.Total() != 10 || r.Len() != 4 {
		t.Fatalf("total=%d len=%d", r.Total(), r.Len())
	}
	recs := r.Records()
	for i, rec := range recs {
		want := int64(7 + i)
		if rec.At != want || rec.Seq != uint64(want) {
			t.Errorf("record %d: at=%d seq=%d, want %d", i, rec.At, rec.Seq, want)
		}
	}
}

func TestProvenanceNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	var rec Record
	exercise := func() {
		r.Commit(&rec)
		_ = r.HealthyEvery()
		_ = r.Total()
		_ = r.Len()
	}
	exercise()
	if n := testing.AllocsPerRun(1000, exercise); n != 0 {
		t.Errorf("nil recorder allocates %v times per run, want 0", n)
	}
	if got := r.Records(); got != nil {
		t.Errorf("nil recorder records = %v", got)
	}
	if got := r.ForMonitor("m", 3); got != nil {
		t.Errorf("nil recorder ForMonitor = %v", got)
	}
}

func TestProvenanceCommitAllocationFree(t *testing.T) {
	r := New(64, 1)
	var rec Record
	rec.Monitor = "m"
	rec.AddFeature("k", 1, false, false)
	rec.AddAction("REPORT", "ok")
	r.Commit(&rec)
	if n := testing.AllocsPerRun(1000, func() { r.Commit(&rec) }); n != 0 {
		t.Errorf("Commit allocates %v times per run, want 0", n)
	}
}

func TestProvenanceRecordCaptureBounds(t *testing.T) {
	var r Record
	for i := 0; i < MaxFeatures+4; i++ {
		r.AddFeature("k", float64(i), false, false)
	}
	if r.NFeatures != MaxFeatures || !r.FeaturesTruncated {
		t.Errorf("features: n=%d truncated=%v", r.NFeatures, r.FeaturesTruncated)
	}
	for i := 0; i < MaxActions+2; i++ {
		r.AddAction("A", "ok")
	}
	if r.NActions != MaxActions || !r.ActionsTruncated {
		t.Errorf("actions: n=%d truncated=%v", r.NActions, r.ActionsTruncated)
	}
}

func TestProvenanceForMonitor(t *testing.T) {
	r := New(32, DefaultHealthyEvery)
	for i := 1; i <= 6; i++ {
		name := "a"
		if i%2 == 0 {
			name = "b"
		}
		rec := Record{At: int64(i), Kind: KindViolation, Monitor: name}
		r.Commit(&rec)
	}
	got := r.ForMonitor("a", 2)
	if len(got) != 2 || got[0].At != 3 || got[1].At != 5 {
		t.Errorf("ForMonitor(a, 2) = %+v", got)
	}
	if all := r.ForMonitor("a", 0); len(all) != 3 {
		t.Errorf("ForMonitor(a, 0) = %d records", len(all))
	}
	if none := r.ForMonitor("zzz", 5); len(none) != 0 {
		t.Errorf("ForMonitor(zzz) = %+v", none)
	}
}

func TestProvenanceWriteJSONDeterministic(t *testing.T) {
	r := New(8, DefaultHealthyEvery)
	rec := Record{At: 42, Kind: KindViolation, Monitor: "m", Gen: 1, Steps: 9}
	rec.AddFeature("false_submit_rate", 0.2, false, false)
	r.Commit(&rec)
	gate := Record{At: 50, Kind: KindGate, Monitor: "m@v2", Gen: 2, Stage: "canary",
		GateSource: "flight", Cand: Window{Evals: 3}, Inc: Window{Evals: 5}}
	r.Commit(&gate)

	var a, b strings.Builder
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteJSON is not deterministic across calls")
	}
	for _, want := range []string{
		`"records_total": 2`,
		`"kind": "violation"`,
		`"key": "false_submit_rate"`,
		`"kind": "gate"`,
		`"gate_source": "flight"`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("export missing %q:\n%s", want, a.String())
		}
	}

	var nilRec *Recorder
	var c strings.Builder
	if err := nilRec.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), `"records": []`) {
		t.Errorf("nil recorder export = %s", c.String())
	}
}

func TestProvenanceExplainRendering(t *testing.T) {
	viol := Record{At: 1e9, Kind: KindViolation, Monitor: "low-false-submit", Gen: 1,
		Steps: 8, TrapFree: true, DivProven: true, MaxSteps: 11}
	viol.AddFeature("false_submit_rate", 0.21, false, false)
	viol.AddFeature("load_global", 3, false, true)
	viol.NBranches = 1
	viol.Branches[0] = BranchDecision{PC: 3, Taken: true}
	viol.AddAction("SAVE(ml_enabled)", "save")

	fault := Record{At: 2e9, Kind: KindFault, Monitor: "low-false-submit", Gen: 1, FaultKind: "div-trap"}
	gate := Record{At: 3e9, Kind: KindGate, Monitor: "low-false-submit@v2", Gen: 2,
		Stage: "canary", GateReason: "violations regressed", GateSource: "stats",
		Cand: Window{Violations: 4}, Inc: Window{Violations: 1}}
	rb := Record{At: 4e9, Kind: KindRollback, Monitor: "rollout", Gen: 2, Reason: "canary gate failed"}
	shadow := Record{At: 5e9, Kind: KindEval, Monitor: "low-false-submit", Gen: 1,
		Held: true, Shadow: true, ShadowReason: "forced-shadow", Site: "io_submit", Arg: 0.5}

	out := Explain("low-false-submit", Views([]Record{viol, fault, gate, rb, shadow}))
	for _, want := range []string{
		"low-false-submit — last 5 decision(s):",
		"VIOLATION  low-false-submit@v1",
		"loaded: false_submit_rate=0.21 load_global=3 (global)",
		"path: pc3:jump",
		"vm: 8 steps (proven trap-free, div-proven, ≤11 steps certified)",
		"rule: VIOLATED",
		"action SAVE(ml_enabled): save",
		"fault: div-trap",
		"canary gate FAILED: violations regressed (window scored from stats)",
		"candidate: evals=0 violations=4",
		"rolled back: canary gate failed",
		"trigger: io_submit (arg 0.5)",
		"actions suppressed (forced-shadow)",
		"rule: held",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}

	empty := Explain("ghost", nil)
	if !strings.Contains(empty, "ghost: no decision records retained") {
		t.Errorf("empty explain = %q", empty)
	}
}

func TestProvenanceKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}
