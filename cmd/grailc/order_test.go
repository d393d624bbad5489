package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as grailc itself, so
// main's argument handling is tested end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GRAILC_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestInputsProcessedInArgumentOrder: -e text first, then files as
// given — output order, and so which error a reader sees first, must
// not depend on map iteration.
func TestInputsProcessedInArgumentOrder(t *testing.T) {
	dir := t.TempDir()
	var args []string
	// Reverse-alphabetical on purpose, and enough files that a random
	// order is all but certain to differ.
	names := []string{"z.grail", "m.grail", "a.grail", "q.grail"}
	for _, n := range names {
		path := filepath.Join(dir, n)
		if err := os.WriteFile(path, []byte(testSpec), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, path)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-check-only", "-e", testSpec}, args...)...)
	cmd.Env = append(os.Environ(), "GRAILC_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("grailc: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, _, _ := strings.Cut(line, ": ")
		got = append(got, filepath.Base(name))
	}
	want := append([]string{"<command line>"}, names...)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("processed in order %v, want %v", got, want)
	}
}
