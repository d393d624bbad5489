package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCheck(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = run(&out, &errb, args)
	return out.String(), errb.String(), code
}

// TestCleanDeployment: the P1-P6-style deployment must check clean —
// six guardrails, zero warnings, exit 0 — and the report must carry the
// hook-site load table within budget.
func TestCleanDeployment(t *testing.T) {
	out, errb, code := runCheck(t, "-manifest", filepath.Join("testdata", "clean.json"))
	if code != 0 {
		t.Fatalf("clean deployment exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	for _, want := range []string{"6 guardrail(s)", "no findings", "hook io_uring_submit", "(budget 64)"} {
		if !strings.Contains(out, want) {
			t.Errorf("clean output missing %q:\n%s", want, out)
		}
	}
}

// TestConflictingPairGolden pins the complete output for the seeded
// conflicting pair: contradictory SAVEs of ml_enabled (GI001) and a
// REPLACE ping-pong (GI002) on one hook site, exit 1.
func TestConflictingPairGolden(t *testing.T) {
	out, _, code := runCheck(t, "-manifest", filepath.Join("testdata", "conflict.json"))
	if code != 1 {
		t.Fatalf("conflicting deployment exited %d, want 1\n%s", code, out)
	}
	compareGolden(t, filepath.Join("testdata", "conflict.golden"), out)
	for _, want := range []string{"GI001", "GI002", "ml_enabled", "dispatch order"} {
		if !strings.Contains(out, want) {
			t.Errorf("conflict output missing %q:\n%s", want, out)
		}
	}
}

// TestFeedbackCycleGolden pins the output for the seeded SAVE→LOAD
// feedback cycle (GI004), exit 1.
func TestFeedbackCycleGolden(t *testing.T) {
	out, _, code := runCheck(t, filepath.Join("testdata", "feedback.grail"))
	if code != 1 {
		t.Fatalf("feedback deployment exited %d, want 1\n%s", code, out)
	}
	compareGolden(t, filepath.Join("testdata", "feedback.golden"), out)
	if !strings.Contains(out, "GI004") || !strings.Contains(out, "feedback cycle") {
		t.Errorf("feedback output missing GI004 finding:\n%s", out)
	}
}

// TestBudgetManifest: a per-site override below the pair's summed
// certified steps adds GI005 on top of the conflicts.
func TestBudgetManifest(t *testing.T) {
	out, _, code := runCheck(t, "-manifest", filepath.Join("testdata", "budget.json"))
	if code != 1 {
		t.Fatalf("over-budget deployment exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "GI005") || !strings.Contains(out, "exceeds its budget of 4") {
		t.Errorf("budget output missing GI005 finding:\n%s", out)
	}
}

// TestShardedManifest: the same deployment that overflows the per-site
// budget on one loop (budget.json) checks within budget when the
// manifest declares the 4-shard pool it actually runs on — the GI005
// budget scales to budget × shards and the site table shows the
// arithmetic. The -shards flag is the manifest-less spelling.
func TestShardedManifest(t *testing.T) {
	out, _, code := runCheck(t, "-manifest", filepath.Join("testdata", "sharded.json"))
	if code != 1 {
		t.Fatalf("sharded deployment exited %d, want 1 (the GI001/GI002 conflicts remain)\n%s", code, out)
	}
	if strings.Contains(out, "GI005") {
		t.Errorf("budget within shard-scaled capacity still flagged:\n%s", out)
	}
	if !strings.Contains(out, "(budget 4 × 4 shards = 16)") {
		t.Errorf("site table does not show the scaled budget:\n%s", out)
	}

	flagged, _, _ := runCheck(t, "-manifest", filepath.Join("testdata", "budget.json"))
	if !strings.Contains(flagged, "GI005") {
		t.Fatalf("single-loop baseline lost its GI005 finding:\n%s", flagged)
	}
	cleared, _, _ := runCheck(t, "-shards", "4", "-manifest", filepath.Join("testdata", "budget.json"))
	if strings.Contains(cleared, "GI005") {
		t.Errorf("-shards flag did not scale the manifest budget:\n%s", cleared)
	}
}

// TestWarnFlag: -warn reports the findings but exits 0.
func TestWarnFlag(t *testing.T) {
	out, _, code := runCheck(t, "-warn", "-manifest", filepath.Join("testdata", "conflict.json"))
	if code != 0 {
		t.Fatalf("-warn exited %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "GI001") {
		t.Errorf("-warn suppressed the findings:\n%s", out)
	}
}

// TestJSONReport: -json emits a machine-readable report whose
// diagnostics carry the stable codes — the CI artifact format.
func TestJSONReport(t *testing.T) {
	out, _, code := runCheck(t, "-json", "-manifest", filepath.Join("testdata", "conflict.json"))
	if code != 1 {
		t.Fatalf("-json exited %d, want 1", code)
	}
	var report struct {
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
		} `json:"diagnostics"`
		Sites []struct {
			Site  string `json:"site"`
			Total int    `json:"total_max_steps"`
		} `json:"sites"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, out)
	}
	codes := map[string]bool{}
	for _, d := range report.Diagnostics {
		codes[d.Code] = true
		if d.Severity != "warning" {
			t.Errorf("diagnostic %s severity = %q, want warning", d.Code, d.Severity)
		}
	}
	if !codes["GI001"] || !codes["GI002"] {
		t.Errorf("JSON report missing codes: %v", codes)
	}
	if len(report.Sites) != 1 || report.Sites[0].Site != "io_uring_submit" || report.Sites[0].Total != 16 {
		t.Errorf("JSON site table wrong: %+v", report.Sites)
	}
}

// TestDuplicateAcrossFiles: the same guardrail name in two files of one
// deployment is GI007 — per-file checking cannot see it.
func TestDuplicateAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "clean_hook.grail"))
	if err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.grail")
	b := filepath.Join(dir, "b.grail")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, _, code := runCheck(t, a, b)
	if code != 1 {
		t.Fatalf("duplicate deployment exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "GI007") || !strings.Contains(out, "appears twice") {
		t.Errorf("missing GI007 finding:\n%s", out)
	}
}

// TestUsageErrors: no inputs, unreadable files, and broken specs or
// manifests exit 2.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"testdata/does_not_exist.grail"},
		{"-manifest", "testdata/does_not_exist.json"},
	}
	for _, args := range cases {
		if _, _, code := runCheck(t, args...); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", args, code)
		}
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.grail")
	if err := os.WriteFile(bad, []byte("guardrail g { rule: { 5 } }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCheck(t, bad); code != 2 {
		t.Errorf("broken spec exited %d, want 2", 2)
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden file %s (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestWitnessGolden pins the -witness output for the two-pair witness
// deployment: the co-firing SAVE conflict must come back CONFIRMED with
// a concrete joint input and both order-swapped sequential replays
// (different final values), and the jointly-infeasible pair must be
// downgraded to PLAUSIBLE while keeping its warning.
func TestWitnessGolden(t *testing.T) {
	out, _, code := runCheck(t, "-witness", filepath.Join("testdata", "witness.grail"))
	if code != 1 {
		t.Fatalf("witness deployment exited %d, want 1\n%s", code, out)
	}
	compareGolden(t, filepath.Join("testdata", "witness.golden"), out)
	if !strings.Contains(out, "CONFIRMED: inputs {err_rate=1}") {
		t.Errorf("co-firing GI001 not CONFIRMED with the joint input:\n%s", out)
	}
	if !strings.Contains(out, "final serving_mode = 2") || !strings.Contains(out, "final serving_mode = 1") {
		t.Errorf("confirmed witness missing the order-swapped replays:\n%s", out)
	}
	if !strings.Contains(out, "PLAUSIBLE: no witness within search bounds") {
		t.Errorf("jointly-infeasible GI001 not downgraded to PLAUSIBLE:\n%s", out)
	}
	// The downgrade never drops the finding: both GI001 warnings remain.
	if strings.Count(out, "[GI001]") != 2 {
		t.Errorf("expected both GI001 findings to survive, got:\n%s", out)
	}
}

// TestWitnessJSONReport: witness annotations ride the JSON artifact as
// witness_status and a replayable witness object.
func TestWitnessJSONReport(t *testing.T) {
	out, _, code := runCheck(t, "-witness", "-json", filepath.Join("testdata", "witness.grail"))
	if code != 1 {
		t.Fatalf("-witness -json exited %d, want 1", code)
	}
	var report struct {
		Diagnostics []struct {
			Code    string `json:"code"`
			Status  string `json:"witness_status"`
			Witness *struct {
				Inputs map[string]float64 `json:"inputs"`
				Steps  []string           `json:"steps"`
			} `json:"witness"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, out)
	}
	var confirmed, plausible int
	for _, d := range report.Diagnostics {
		switch d.Status {
		case "CONFIRMED":
			confirmed++
			if d.Witness == nil || len(d.Witness.Inputs) == 0 || len(d.Witness.Steps) == 0 {
				t.Errorf("CONFIRMED %s carries no replayable witness", d.Code)
			}
		case "PLAUSIBLE":
			plausible++
			if d.Witness != nil {
				t.Errorf("PLAUSIBLE %s carries a witness", d.Code)
			}
		}
	}
	if confirmed == 0 || plausible == 0 {
		t.Errorf("want both CONFIRMED and PLAUSIBLE diagnostics, got %d/%d", confirmed, plausible)
	}
}

// TestAggregateManifests: a manifest that declares its registered
// aggregates opts into GV011 — the clean manifest registers err_rate
// and checks clean; the dirty one registers only qdepth, so the
// err_rate_global LOAD flags and fails the check.
func TestAggregateManifests(t *testing.T) {
	out, errb, code := runCheck(t, "-manifest", filepath.Join("testdata", "aggregates_clean.json"))
	if code != 0 {
		t.Fatalf("clean aggregate manifest exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if strings.Contains(out, "GV011") {
		t.Errorf("registered aggregate flagged:\n%s", out)
	}

	out, _, code = runCheck(t, "-manifest", filepath.Join("testdata", "aggregates_dirty.json"))
	if code != 1 {
		t.Fatalf("dirty aggregate manifest exited %d, want 1\n%s", code, out)
	}
	compareGolden(t, filepath.Join("testdata", "aggregates_dirty.golden"), out)
	if !strings.Contains(out, "[GV011]") || !strings.Contains(out, "err_rate_global") {
		t.Errorf("missing GV011 finding:\n%s", out)
	}
}
