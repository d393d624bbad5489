package compile

import (
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/spec"
)

// benchSrc exercises every pipeline stage: repeated loads (CSE),
// constants (folding, immediate selection), builtins (call codegen), and
// a conjunction (branch fusion).
const benchSrc = `
guardrail bench {
    trigger: { TIMER(start_time, 1e9) },
    rule: {
        abs(LOAD(x) - LOAD(y)) / max(LOAD(y), 1) <= 0.5;
        LOAD(x) + 0 < 2 * LOAD(x) || LOAD(z) == 1
    },
    action: { REPORT(LOAD(x), LOAD(y)); SAVE(ml_enabled, 0) }
}`

// BenchmarkCompilePipeline measures the full .grail → verified image
// path at each optimization level, and (manifest) CheckedFile alone over
// the check_manifest workload's 200 guardrails, parsed and checked once
// outside the loop, in ns and allocations per guardrail.
func BenchmarkCompilePipeline(b *testing.B) {
	for _, bc := range []struct {
		name  string
		level int
	}{{"O0", 0}, {"O1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SourceWith(benchSrc, Options{Level: bc.level}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("manifest", func(b *testing.B) {
		files, n := checkedManifest(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				if _, err := CheckedFile(f, DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/guardrail")
	})
}

// checkedManifest parses and checks every file of the check_manifest
// workload's deployment (benchmark/gen at seed 1, every ladder) and
// returns them with their guardrail count.
func checkedManifest(tb testing.TB) ([]*spec.File, int) {
	tb.Helper()
	var files []*spec.File
	n := 0
	for _, sf := range gen.BuildManifest(1, gen.Ladders).Files {
		f, err := spec.ParseChecked(sf.Source)
		if err != nil {
			tb.Fatalf("%s: %v", sf.Name, err)
		}
		files = append(files, f)
		n += len(f.Guardrails)
	}
	return files, n
}

// BenchmarkCompileStages isolates each pipeline stage: parsing+checking,
// lowering, each IR pass, and codegen.
func BenchmarkCompileStages(b *testing.B) {
	file, err := spec.Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	g := file.Guardrails[0]
	if err := spec.CheckGuardrail(g); err != nil {
		b.Fatal(err)
	}
	b.Run("lower", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lowerGuardrail(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	for pi, p := range passesForLevel(1) {
		// Each pass benchmarks against the IR state its predecessors
		// produce, not the raw lowered form.
		prefix := passesForLevel(1)[:pi]
		b.Run("pass/"+p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, err := lowerGuardrail(g)
				if err != nil {
					b.Fatal(err)
				}
				for _, q := range prefix {
					q.run(f)
				}
				b.StartTimer()
				p.run(f)
			}
		})
	}
	b.Run("codegen", func(b *testing.B) {
		f, err := lowerGuardrail(g)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range passesForLevel(1) {
			q.run(f)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := genProgram(f, g.Name); err != nil {
				b.Fatal(err)
			}
		}
	})
}
