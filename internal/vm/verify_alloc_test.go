package vm_test

import (
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/compile"
	"guardrails/internal/vm"
)

// TestVerifyAllocs bounds what one Verify of the fire_wide guardrail
// (103 instructions) allocates. The analyzer's per-pc states and step
// table come from a pool, so what is left is the program copy the test
// hands in, the Analysis and its two fact slices: 4 allocations per run
// measured, where a fresh analyzer per call made 9. The bound of 5
// leaves one for the pool refills after a garbage collection empties
// it (three allocations each, averaged over the runs).
func TestVerifyAllocs(t *testing.T) {
	cs, err := compile.Source(gen.Wide(1, 1, 0.2).Source)
	if err != nil {
		t.Fatal(err)
	}
	p := cs[0].Program
	allocs := testing.AllocsPerRun(100, func() {
		q := *p
		if err := vm.Verify(&q, vm.NumBuiltinHelpers); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("Verify of the %d-instruction fire_wide program allocates %v times per call, want at most 5", len(p.Code), allocs)
	}
}
