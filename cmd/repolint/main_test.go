package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestTreeIsClean runs the real driver over the whole module — the same
// invocation CI gates on, every analyzer — and requires zero findings.
func TestTreeIsClean(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	root := repoRoot(t)
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	code, err := run(&sb, []string{"./..."})
	if err != nil {
		t.Fatalf("repolint failed: %v", err)
	}
	if code != 0 {
		t.Errorf("repolint ./... has findings:\n%s", sb.String())
	}
}

// TestDriverFlagsSeededViolation plants a marked allocating function
// and a function nothing calls in a throwaway package under internal/
// and checks the driver flags both and exits 1.
func TestDriverFlagsSeededViolation(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	root := repoRoot(t)
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "zz_seeded_violation")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src := `package seeded

//guardrails:hotpath
func leaky(n int) []int {
	return make([]int, n)
}
`
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	code, err := run(&sb, []string{"./internal/zz_seeded_violation"})
	if err != nil {
		t.Fatalf("repolint failed: %v", err)
	}
	if code != 1 {
		t.Errorf("seeded violations not flagged (exit %d):\n%s", code, sb.String())
	}
	for _, want := range []string{
		"hotpath: leaky: make allocates",
		"reach: guardrails/internal/zz_seeded_violation.leaky: reachable only from tests",
		"repolint: 2 finding(s)", // and none from the packages the pattern leaves out
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, sb.String())
		}
	}
}
