package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestListing2PassDumpGolden pins the complete -S output for the paper's
// Listing 2: the IR after lowering and after every -O1 pass, then the
// annotated disassembly. Any change to the pass pipeline's behavior on
// the flagship example shows up as a diff here.
func TestListing2PassDumpGolden(t *testing.T) {
	var sb strings.Builder
	if err := processOne(&sb, "t.grail", testSpec, options{asm: true, level: 1}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "listing2_dump.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("-S dump drifted from golden file (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Sanity: the dump names every pipeline stage and ends optimized.
	for _, stage := range []string{
		"; after lower", "; after constfold", "; after cse",
		"; after copyprop", "; after immsel", "; after dce",
		"; -O1: 9 insns before optimization",
		"jgti",
	} {
		if !strings.Contains(got, stage) {
			t.Errorf("-S dump missing %q", stage)
		}
	}
}
