package compile

import (
	"math"
	"strings"
	"testing"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// FuzzOptDifferential is the optimizer's semantics oracle: any source
// that compiles at both -O0 (straight lowering) and -O1 (full pass
// pipeline) must behave identically when both programs replay the same
// concrete feature assignment on the real interpreter — same exit value,
// same helper-call sequence, same final value for every stored key. The
// optimizer may change instruction count and branch shape, never
// observable behavior. At both levels a run whose rule holds must store
// nothing and call no REPORT/ACTION helper.
func FuzzOptDifferential(f *testing.F) {
	f.Add(`guardrail g {
    trigger: { TIMER(0, 1e9) },
    rule: { LOAD(qdepth) > 8 },
    action: { REPORT(LOAD(qdepth)) }
}`, 42.0, -1.0)
	f.Add(`guardrail h {
    trigger: { FUNCTION(io_uring_submit) },
    rule: {
        LOAD(err_rate) <= 0.25
        LOAD(io_lat_p99) / 1e6 < 5 || LOAD(qdepth) == 0
    },
    action: {
        SAVE(serving_mode, 1)
        REPORT(1)
    }
}`, 0.5, 3e6)
	f.Add(`guardrail fold {
    trigger: { TIMER(0, 1e9) },
    rule: { 2 * 3 + LOAD(a) > 6 - 1 },
    action: { SAVE(b, LOAD(a) * 0 + 1) }
}`, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, src string, x, y float64) {
		if len(src) > 4096 {
			return
		}
		file, err := spec.Parse(src)
		if err != nil {
			return
		}
		gs := file.Guardrails
		if len(gs) > 4 {
			gs = gs[:4]
		}
		for _, g := range gs {
			c0, err0 := GuardrailWith(g, Options{Level: 0})
			c1, err1 := GuardrailWith(g, Options{Level: 1})
			if err0 != nil || err1 != nil {
				// Either level may reject (e.g. -O0 cannot prove a
				// division safe that -O1 folds away); only dual
				// acceptance is comparable. An assembler error is never
				// a rejection: codegen emitted a jump it cannot encode.
				for _, err := range []error{err0, err1} {
					if err != nil && strings.Contains(err.Error(), "vm: label") {
						t.Fatalf("%s: codegen bug on checked source: %v", g.Name, err)
					}
				}
				continue
			}
			assign := map[string]float64{}
			vals := []float64{x, y}
			for i, k := range union(vm.LoadedKeys(c0.Program), vm.LoadedKeys(c1.Program)) {
				assign[k] = vals[i%len(vals)]
			}
			r0 := vm.ReplayProgram(c0.Program, assign, x, 1000)
			r1 := vm.ReplayProgram(c1.Program, assign, x, 1000)
			if r0.Err != nil || r1.Err != nil {
				t.Fatalf("%s: verified program trapped: -O0 %v, -O1 %v", g.Name, r0.Err, r1.Err)
			}
			// The monitor decides before its one run whether the run may
			// act, which is exact only if a holding run has no effects.
			for level, r := range []*vm.Replay{r0, r1} {
				if !r.Violated && (len(r.Stores) > 0 || len(r.Calls) > 0) {
					t.Fatalf("%s: -O%d holding run has effects: stores %v, calls %v\nassign=%v",
						g.Name, level, r.Stores, r.Calls, assign)
				}
			}
			if !eqFloat(r0.R0, r1.R0) || r0.Violated != r1.Violated {
				t.Fatalf("%s: exit divergence: -O0 (r0=%v violated=%v) vs -O1 (r0=%v violated=%v)\nassign=%v\n-O0:\n%s\n-O1:\n%s",
					g.Name, r0.R0, r0.Violated, r1.R0, r1.Violated, assign, c0.Program, c1.Program)
			}
			if len(r0.Calls) != len(r1.Calls) {
				t.Fatalf("%s: helper-call divergence: -O0 %v vs -O1 %v", g.Name, r0.Calls, r1.Calls)
			}
			for i := range r0.Calls {
				if r0.Calls[i].Helper != r1.Calls[i].Helper || !eqFloat(r0.Calls[i].Arg, r1.Calls[i].Arg) {
					t.Fatalf("%s: call %d diverges: -O0 %v vs -O1 %v", g.Name, i, r0.Calls[i], r1.Calls[i])
				}
			}
			for _, k := range storedKeys(r0, r1) {
				v0, ok0 := r0.FinalStore(k)
				v1, ok1 := r1.FinalStore(k)
				if ok0 != ok1 || (ok0 && !eqFloat(v0, v1)) {
					t.Fatalf("%s: final store of %q diverges: -O0 (%v,%v) vs -O1 (%v,%v)",
						g.Name, k, v0, ok0, v1, ok1)
				}
			}
		}
	})
}

func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range append(append([]string(nil), a...), b...) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func storedKeys(rs ...*vm.Replay) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs {
		for _, s := range r.Stores {
			if !seen[s.Key] {
				seen[s.Key] = true
				out = append(out, s.Key)
			}
		}
	}
	return out
}
