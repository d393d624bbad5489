package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runInTestdata runs grailcheck from inside testdata, so diagnostics
// name the spec files the way the lint goldens were recorded.
func runInTestdata(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("testdata"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	return runCheck(t, args...)
}

// TestVetGoldenDiagnostics pins the complete -vet output for a spec
// built to trip every interesting linter check: always-true and
// always-false rules, contradictory per-key intervals, a tautological
// comparison, a constant-zero divisor, a duplicate rule, a SAVE/LOAD
// feedback loop, and an unread SAVEd key. Diagnostic codes, ordering,
// positions, and wording are all covered by the golden file. The spec
// does not compile (its divisor is a constant zero), so the output also
// pins that lint runs before compile and its warnings end the check.
func TestVetGoldenDiagnostics(t *testing.T) {
	got, _, code := runInTestdata(t, "-vet", "vet_diags.grail")
	if code != 1 {
		t.Fatalf("-vet on a spec with warning diagnostics exited %d, want 1\n%s", code, got)
	}
	compareGolden(t, filepath.Join("testdata", "vet_diags.golden"), got)

	// Sanity independent of the golden file: every expected code fires.
	for _, code := range []string{
		"GV001", "GV002", "GV003", "GV004", "GV005", "GV006", "GV007", "GV008", "GV009",
	} {
		if !strings.Contains(got, code) {
			t.Errorf("-vet output missing %s", code)
		}
	}
}

// TestVetRangeGolden pins the -vet output for the declared-range check
// (GV010): a threshold the declared feature range always satisfies, a
// threshold it can never satisfy, and a third guardrail whose threshold
// cuts the range properly and stays silent.
func TestVetRangeGolden(t *testing.T) {
	got, _, code := runInTestdata(t, "-vet", "vet_range.grail")
	if code != 1 {
		t.Fatalf("-vet accepted out-of-range thresholds (exit %d)\n%s", code, got)
	}
	compareGolden(t, filepath.Join("testdata", "vet_range.golden"), got)
	if strings.Contains(got, "ok-watch") {
		t.Errorf("GV010 flagged a threshold inside the declared range:\n%s", got)
	}
}

// TestVetCleanSpec runs the linter over the paper's Listing 2: it must
// produce no warnings (the SAVEd ml_enabled control knob is Info-level
// by design — the instrumented policy reads it, not the spec), so the
// check goes on to the deployment analyses and passes them too.
func TestVetCleanSpec(t *testing.T) {
	out, errb, code := runInTestdata(t, "-vet", "listing2.grail")
	if code != 0 {
		t.Fatalf("clean spec failed -vet (exit %d)\n%s%s", code, out, errb)
	}
	for _, want := range []string{"listing2.grail: vet:", "1 guardrail(s): no findings"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVetWitnessGolden pins the -vet -witness output: the GV003
// contradiction on a compilable guardrail must come back CONFIRMED with
// a concrete input and the replayed trace, while the GV002 on a
// guardrail that fails verification (constant-zero divisor) must be
// downgraded to PLAUSIBLE — the static finding is never dropped.
func TestVetWitnessGolden(t *testing.T) {
	got, _, code := runInTestdata(t, "-vet", "-witness", "vet_witness.grail")
	if code != 1 {
		t.Fatalf("-vet accepted a spec with warning diagnostics (exit %d)\n%s", code, got)
	}
	compareGolden(t, filepath.Join("testdata", "vet_witness.golden"), got)

	if !strings.Contains(got, "[GV003]") || !strings.Contains(got, "CONFIRMED: inputs {qdepth=") {
		t.Errorf("GV003 not CONFIRMED with a concrete input:\n%s", got)
	}
	if !strings.Contains(got, "rule conjunction evaluates to 0 (violated) on the real VM") {
		t.Errorf("confirmed witness missing the replay narration:\n%s", got)
	}
	if !strings.Contains(got, "[GV002]") || !strings.Contains(got, "PLAUSIBLE: no witness within search bounds") {
		t.Errorf("GV002 on the unverifiable guardrail not downgraded to PLAUSIBLE:\n%s", got)
	}
}

// TestVetWitnessOffByDefault: without -witness no status annotations
// appear, so existing diagnostics output is unchanged.
func TestVetWitnessOffByDefault(t *testing.T) {
	out, _, _ := runInTestdata(t, "-vet", "vet_witness.grail")
	if strings.Contains(out, "CONFIRMED") || strings.Contains(out, "PLAUSIBLE") {
		t.Errorf("witness annotations appeared without -witness:\n%s", out)
	}
}

// TestVetAggregates: under -vet a manifest's aggregate registrations
// reach the linter's GV011 check — registered passes, unregistered
// stops at lint, and no manifest means no aggregate context.
func TestVetAggregates(t *testing.T) {
	out, errb, code := runCheck(t, "-vet", "-manifest", filepath.Join("testdata", "aggregates_clean.json"))
	if code != 0 {
		t.Fatalf("registered aggregate flagged (exit %d)\n%s%s", code, out, errb)
	}
	out, _, code = runCheck(t, "-vet", "-manifest", filepath.Join("testdata", "aggregates_dirty.json"))
	if code != 1 || !strings.Contains(out, "[GV011]") {
		t.Fatalf("unregistered *_global LOAD passed -vet (exit %d)\n%s", code, out)
	}
	if strings.Contains(out, "guardrail(s)") {
		t.Errorf("lint warnings did not end the check:\n%s", out)
	}
	out, errb, code = runCheck(t, "-vet", filepath.Join("testdata", "aggregates.grail"))
	if code != 0 {
		t.Fatalf("GV011 fired without aggregate context (exit %d)\n%s%s", code, out, errb)
	}
}
