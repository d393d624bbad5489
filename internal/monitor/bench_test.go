package monitor

import (
	"testing"
)

// BenchmarkEvaluate times one Monitor.Evaluate, holding and violating,
// with no telemetry or provenance attached: what the runtime itself
// costs per evaluation. hold and violate-report run the same program,
// so their ratio is what a violation's REPORT adds; hold-sqrt adds a
// helper call to the holding path, violate-save an inline SAVE.
//
//	go test -run '^$' -bench Evaluate -benchmem -count 10 ./internal/monitor
func BenchmarkEvaluate(b *testing.B) {
	for _, c := range []struct {
		name, rule, action string
		x                  float64
	}{
		{"hold", "LOAD(x) < 10", "REPORT(LOAD(x))", 1},
		{"hold-sqrt", "sqrt(LOAD(x)) < 10", "REPORT(LOAD(x))", 1},
		{"violate-report", "LOAD(x) < 10", "REPORT(LOAD(x))", 20},
		{"violate-save", "LOAD(x) < 10", "SAVE(y, LOAD(x))", 20},
	} {
		b.Run(c.name, func(b *testing.B) {
			rt, _, st := newRT()
			st.Save("x", c.x)
			ms, err := rt.LoadSource(`
guardrail bench {
    trigger: { FUNCTION(io_done) },
    rule: { `+c.rule+` },
    action: { `+c.action+` }
}`, Options{})
			if err != nil {
				b.Fatal(err)
			}
			m := ms[0]
			// Past one wrap of the report ring: every slot written once.
			for i := 0; i <= 4096; i++ {
				m.Evaluate(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Evaluate(0)
			}
		})
	}
}
