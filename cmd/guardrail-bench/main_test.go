package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as guardrail-bench
// itself, so main's selection and exit codes are tested end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GUARDRAIL_BENCH_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSelectionErrors: a command line that would run nothing, or drop
// an export the caller asked for, exits 2 and says why instead of
// succeeding silently. trig is the cheapest experiment (milliseconds),
// so the accepted case really runs.
func TestSelectionErrors(t *testing.T) {
	dir, out := t.TempDir(), "x.json" // relative, so subtest names are stable
	cases := []struct {
		args   []string
		exit   int
		stderr []string // substrings the diagnostic must carry
	}{
		{[]string{"-only", "trig"}, 0, nil},
		{[]string{"-only", "fig3"}, 2, []string{`"fig3"`, "fig2,p1,p2,p3,p4,p5,p6,osc,trig,chaos,rollout"}},
		{[]string{"-only", ","}, 2, []string{`""`}},
		{[]string{"-only", "trig", "-bench-out", out, "-serve", ":0"}, 2, []string{"-bench-out"}},
		{[]string{"-only", "trig", "-metrics-out", out}, 2, []string{"-metrics-out"}},
		{[]string{"-only", "trig", "-trace-out", out}, 2, []string{"-trace-out"}},
		{[]string{"-only", "trig", "-why-out", out}, 2, []string{"-why-out"}},
		{[]string{"-only", "trig", "-prov"}, 2, []string{"-prov"}},
		{[]string{"-only", "trig", "-serve", ":0"}, 2, []string{"-serve"}},
		{[]string{"-chaos", "-prov"}, 2, []string{"-prov"}},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GUARDRAIL_BENCH_RUN_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				exit = ee.ExitCode()
			}
			if exit != c.exit {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", exit, c.exit, &stdout, &stderr)
			}
			for _, want := range c.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, &stderr)
				}
			}
			if c.exit == 0 && !strings.Contains(stdout.String(), "trigger mechanisms") {
				t.Errorf("accepted selection printed no result:\n%s", &stdout)
			}
			if c.exit != 0 && stdout.Len() != 0 {
				t.Errorf("rejected command line still ran something:\n%s", &stdout)
			}
			if _, err := os.Stat(filepath.Join(dir, out)); err == nil {
				t.Errorf("rejected command line still wrote %s", out)
			}
		})
	}
}
