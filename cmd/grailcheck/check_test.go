package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckCleanFile: a file's own assert blocks are evaluated with no
// flag asking for it, and the escalation ladder proves both.
func TestCheckCleanFile(t *testing.T) {
	out, errb, code := runCheck(t, filepath.Join("testdata", "temporal_clean.grail"))
	if code != 0 {
		t.Fatalf("clean ladder exited %d\n%s%s", code, out, errb)
	}
	for _, want := range []string{"PROVED", "2 proved, 0 refuted"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckOscillatingFile: declared properties are never optional.
// Without -check the oscillating pair's "assert always" is still
// evaluated, refuted with its multi-step trace, and fails the check;
// -witness confirms on the real interpreter. (Before the one-pipeline
// refactor grailcheck reported only the GI004 cycle here and never ran
// the assert.)
func TestCheckOscillatingFile(t *testing.T) {
	out, _, code := runCheck(t, "-witness", filepath.Join("testdata", "temporal_osc.grail"))
	if code != 1 {
		t.Fatalf("oscillating deployment exited %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"[GM001]", "[GM003]", "REFUTED", "CONFIRMED", "step 1 [timer[osc-up]]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckForcesSweep: with no property declared the model checker
// stays off unless -check forces its GM003 oscillation sweep.
func TestCheckForcesSweep(t *testing.T) {
	src := readFile(t, filepath.Join("testdata", "temporal_osc.grail"))
	bare := filepath.Join(t.TempDir(), "osc.grail")
	if err := os.WriteFile(bare, []byte(strings.Replace(src, "assert always LOAD(mode) <= 0", "", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, _ := runCheck(t, bare)
	if strings.Contains(out, "modelcheck:") {
		t.Errorf("model checker ran with no property and no -check:\n%s", out)
	}
	out, _, code := runCheck(t, "-check", bare)
	if code != 1 || !strings.Contains(out, "[GM003]") {
		t.Errorf("-check did not force the oscillation sweep (exit %d):\n%s", code, out)
	}
}

// TestCheckWitnessBudgetPlumbed: the oscillation's witness is the very
// first candidate assignment (mode's store default 0), so even a
// one-trial budget must confirm it — pinning that the budget option
// flows through to the model checker without disabling synthesis.
func TestCheckWitnessBudgetPlumbed(t *testing.T) {
	out, _, code := runCheck(t, "-witness", "-witness-budget", "1", filepath.Join("testdata", "temporal_osc.grail"))
	if code != 1 {
		t.Fatalf("oscillating deployment exited %d, want 1", code)
	}
	if !strings.Contains(out, "CONFIRMED") {
		t.Errorf("trivial witness not found at budget 1:\n%s", out)
	}
}

// TestManifestRejectsUnknownKeys: a misspelt key must not check
// vacuously — "propertes" would drop the property and "hook_bugdet" the
// budget, and the run would exit as if clean.
func TestManifestRejectsUnknownKeys(t *testing.T) {
	spec, err := filepath.Abs(filepath.Join("testdata", "clean_hook.grail"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ manifest, key string }{
		{fmt.Sprintf(`{"specs": [%q], "propertes": ["always LOAD(mode) <= 0"], "hook_bugdet": 3}`, spec), "propertes"},
		{fmt.Sprintf(`{"specs": [%q], "hook_bugdet": 3}`, spec), "hook_bugdet"},
	} {
		path := filepath.Join(t.TempDir(), "m.json")
		if err := os.WriteFile(path, []byte(c.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		out, errb, code := runCheck(t, "-manifest", path)
		if code != 2 {
			t.Errorf("manifest with unknown key %q exited %d, want 2\n%s", c.key, code, out)
		}
		if !strings.Contains(errb, c.key) {
			t.Errorf("error does not name %q: %s", c.key, errb)
		}
	}
}
