package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guardrails/internal/vm"
)

const testSpec = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`

func TestProcessOneSummary(t *testing.T) {
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", testSpec, options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"low-false-submit", "1 trigger(s)", "1 rule(s)", "1 action(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestProcessOneDisassembly(t *testing.T) {
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", testSpec, options{asm: true}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"load", "[false_submit_rate]", "exit"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("asm missing %q:\n%s", want, sb.String())
		}
	}
}

func TestProcessOneJSON(t *testing.T) {
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", testSpec, options{jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"Symbols"`) {
		t.Errorf("json output wrong:\n%s", sb.String())
	}
}

func TestProcessOneCheckOnly(t *testing.T) {
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", testSpec, options{checkOnly: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1 guardrail(s) OK") {
		t.Errorf("check-only output wrong: %s", sb.String())
	}
}

func TestProcessOneErrors(t *testing.T) {
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", "guardrail g { rule: { 5 } }", options{}); err == nil {
		t.Error("invalid spec accepted")
	}
	if err := processOne(&sb, "t.grail", "not a spec", options{}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestProcessOneImageOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "monitor.img")
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", testSpec, options{imageOut: path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := vm.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "low-false-submit" {
		t.Errorf("decoded name = %q", p.Name)
	}
	if err := vm.Verify(p, vm.NumBuiltinHelpers); err != nil {
		t.Errorf("image fails verification: %v", err)
	}
}

func TestProcessOneImageMultiple(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "out")
	two := testSpec + `
guardrail second {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(y) < 1 },
    action: { REPORT() }
}`
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", two, options{imageOut: base}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"out.low-false-submit.img", "out.second.img"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing image %s: %v", name, err)
		}
	}
}
