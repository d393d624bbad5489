package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as grailvm itself, so
// main's verdicts, output and exit codes are tested end to end.
func TestMain(m *testing.M) {
	if os.Getenv("GRAILVM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// listing2 is the paper's Listing 2 guardrail.
const listing2 = `guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}
`

const reportSpec = `guardrail qdepth-cap {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(qdepth) <= 8 },
    action: { REPORT(LOAD(qdepth)) }
}`

// TestOneShotEvaluation: a holding spec exits 0, a violated one exits 1
// with its report and the store it left, and a command line that names
// no spec, a malformed -set or a removed flag exits 2 before evaluating
// anything.
func TestOneShotEvaluation(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "listing2.grail")
	if err := os.WriteFile(specFile, []byte(listing2), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		exit   int
		stdout []string // substrings stdout must carry
		stderr []string // substrings stderr must carry
	}{
		{"holds", []string{"-spec", specFile, "-set", "false_submit_rate=0.01"}, 0,
			[]string{"guardrail low-false-submit", "HOLDS", "1 evals, 0 violations"}, nil},
		{"violated", []string{"-e", reportSpec, "-set", "qdepth=42"}, 1,
			[]string{"VIOLATED", "reported violations:", `guardrail "qdepth-cap" violated values=[42]`,
				"feature store after evaluation:\n  qdepth=42\n"}, nil},
		{"malformed-set", []string{"-e", reportSpec, "-set", "qdepth"}, 2,
			nil, []string{`bad -set "qdepth" (want key=value)`}},
		{"no-input", nil, 2,
			nil, []string{"usage: grailvm (-spec file.grail | -e 'spec')"}},
		{"image-flag", []string{"-image", "x"}, 2,
			nil, []string{"flag provided but not defined: -image"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "GRAILVM_RUN_MAIN=1")
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
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			for _, want := range c.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, &stderr)
				}
			}
			if c.exit == 2 && stdout.Len() != 0 {
				t.Errorf("rejected command line still evaluated:\n%s", &stdout)
			}
		})
	}
}
