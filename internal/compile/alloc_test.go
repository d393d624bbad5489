package compile

import "testing"

// TestCompileAllocs bounds what CheckedFile allocates per guardrail on
// the check_manifest workload's 200 guardrails, which it lowers, runs
// through codegen at -O0 and -O1, and verifies both of. Measured: 31.77
// allocations per guardrail, where emitting through a label-patching
// builder with string-keyed CSE tables made 86.49. The bound of 36
// leaves room for the analyzer pool's refills (three allocations each),
// which the race detector's random pool drops make frequent: 34.1 under
// -race.
func TestCompileAllocs(t *testing.T) {
	files, n := checkedManifest(t)
	allocs := testing.AllocsPerRun(20, func() {
		for _, f := range files {
			if _, err := CheckedFile(f, DefaultOptions); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(n)
	if allocs > 36 {
		t.Errorf("CheckedFile allocates %.2f times per guardrail, want at most 36", allocs)
	}
}
