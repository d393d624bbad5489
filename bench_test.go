package guardrails

// Benchmark harness: one macro-benchmark per reproduced table/figure
// (each iteration runs the full experiment and reports its headline
// numbers via b.ReportMetric) plus microbenchmarks for the monitor
// pipeline hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Macro benchmarks take seconds per iteration; use -benchtime=1x for a
// single replication of every experiment.

import (
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/experiments"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/monitor"
	"guardrails/internal/nn"
	"guardrails/internal/storage"
	"guardrails/internal/vm"
)

// --- macro benchmarks: one per table/figure --------------------------

// BenchmarkFig2LinnOSGuardrail regenerates Figure 2.
func BenchmarkFig2LinnOSGuardrail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(experiments.DefaultFig2Config(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GuardedTailUS, "guarded_tail_us")
		b.ReportMetric(r.UnguardedTailUS, "unguarded_tail_us")
		b.ReportMetric(float64(r.GuardrailFiredAt-r.ShiftAt)/float64(kernel.Second), "detect_s")
	}
}

// BenchmarkP1DriftDetection regenerates the P1 row of Figure 1.
func BenchmarkP1DriftDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunP1Drift(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ShiftedPSI, "peak_psi")
		b.ReportMetric(float64(r.DetectedAt-r.ShiftAt)/float64(kernel.Millisecond), "detect_ms")
	}
}

// BenchmarkP2Robustness regenerates the P2 row at noise sigma 0.3.
func BenchmarkP2Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunP2Robustness(1, []float64{0.3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].LearnedCoV, "learned_cov")
		b.ReportMetric(rows[0].AIMDCoV, "aimd_cov")
		b.ReportMetric(rows[0].GuardedCoV, "guarded_cov")
	}
}

// BenchmarkP3OutOfBounds regenerates the P3 row.
func BenchmarkP3OutOfBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunP3OutOfBounds(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.UnguardedIllegal), "unguarded_illegal")
		b.ReportMetric(float64(r.GuardedIllegal), "guarded_illegal")
	}
}

// BenchmarkP4DecisionQuality regenerates the P4 row.
func BenchmarkP4DecisionQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunP4Quality(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CalmLearnedHit-r.CalmRandomHit, "calm_advantage")
		b.ReportMetric(r.ShiftLearnedHit-r.ShiftRandomHit, "shift_advantage")
	}
}

// BenchmarkP5Overhead regenerates the P5 row at the profitable and
// unprofitable inference costs.
func BenchmarkP5Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunP5Overhead(1, []kernel.Time{
			6 * kernel.Microsecond, 400 * kernel.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].OverheadRatio, "cheap_ratio")
		b.ReportMetric(b2f(rows[1].MLFinal), "costly_ml_final")
	}
}

// BenchmarkP6Fairness regenerates the P6 row.
func BenchmarkP6Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunP6Fairness(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.LearnedMaxWait)/float64(kernel.Millisecond), "learned_max_wait_ms")
		b.ReportMetric(float64(r.GuardedMaxWait)/float64(kernel.Millisecond), "guarded_max_wait_ms")
	}
}

// BenchmarkOscillation regenerates the §6 feedback-loop study.
func BenchmarkOscillation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOscillation(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TogglesNoHysteresis), "toggles_raw")
		b.ReportMetric(float64(r.TogglesWithHysteresis), "toggles_hysteresis")
	}
}

// BenchmarkTriggerSweep regenerates the §6 trigger-mechanism study.
func BenchmarkTriggerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTriggerSweep(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mechanism == "dependency" {
				b.ReportMetric(float64(r.Detection)/float64(kernel.Millisecond), "dep_detect_ms")
			}
		}
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- microbenchmarks: monitor pipeline hot paths ----------------------

const benchSpec = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`

// BenchmarkVMMonitor measures one Listing-2 monitor evaluation against a
// live feature store — the in-kernel hot path.
func BenchmarkVMMonitor(b *testing.B) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(benchSpec, monitor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms[0].Evaluate(0)
	}
}

// BenchmarkVMMonitorViolated measures the violated path including the
// inlined SAVE action.
func BenchmarkVMMonitorViolated(b *testing.B) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(benchSpec, monitor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st.Save("false_submit_rate", 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms[0].Evaluate(0)
	}
}

// BenchmarkCompile measures spec-to-verified-program compilation.
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := compile.Source(benchSpec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures the static verifier alone.
func BenchmarkVerify(b *testing.B) {
	cs, err := compile.Source(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Verify(cs[0].Program, vm.NumBuiltinHelpers); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunEnv is a minimal Env for benchmarking the raw interpreter
// loop without feature-store or helper overhead in the way.
type benchRunEnv struct{ cells [4]float64 }

func (e *benchRunEnv) LoadCell(i int32) float64                         { return e.cells[i] }
func (e *benchRunEnv) StoreCell(i int32, v float64)                     { e.cells[i] = v }
func (e *benchRunEnv) Helper(vm.HelperID, *[5]float64) (float64, error) { return 0, nil }

// BenchmarkRun isolates the interpreter loop: the compiled Listing-2
// program on a bare Env. The per-fire share of this cost is the
// benchmark's vm.run_ns / vm.ns_per_step (BENCHMARK.json).
func BenchmarkRun(b *testing.B) {
	cs, err := compile.Source(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	p := cs[0].Program
	var m vm.Machine
	env := &benchRunEnv{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(p, env, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureStore measures the SAVE/LOAD fast path by interned ID.
func BenchmarkFeatureStore(b *testing.B) {
	st := featurestore.New()
	id := st.Intern("k")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SaveID(id, float64(i))
		_ = st.LoadID(id)
	}
}

// BenchmarkNNInferenceFloat measures float inference of the LinnOS-size
// classifier.
func BenchmarkNNInferenceFloat(b *testing.B) {
	c := linnos.NewClassifier(1)
	in := make([]float64, linnos.NumFeatures)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictSlow(in)
	}
}

// BenchmarkNNInferenceQuantized measures int16 fixed-point inference
// (the in-kernel deployment mode whose cost P5 accounts for).
func BenchmarkNNInferenceQuantized(b *testing.B) {
	c := linnos.NewClassifier(1)
	if err := c.EnableQuantized(); err != nil {
		b.Fatal(err)
	}
	in := make([]float64, linnos.NumFeatures)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictSlow(in)
	}
}

// BenchmarkNNTraining measures one SGD epoch on a small batch.
func BenchmarkNNTraining(b *testing.B) {
	inputs := make([][]float64, 256)
	targets := make([][]float64, 256)
	for i := range inputs {
		inputs[i] = []float64{float64(i % 7), float64(i % 3)}
		targets[i] = []float64{float64(i % 2)}
	}
	net := nn.New(nn.Config{Layers: []int{2, 16, 1}, Hidden: nn.ReLU, Output: nn.Sigmoid, Loss: nn.BCE, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Train(inputs, targets, nn.TrainOpts{Epochs: 1, BatchSize: 32, LearningRate: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSDSubmit measures the analytical flash model's per-I/O cost.
func BenchmarkSSDSubmit(b *testing.B) {
	d, err := storage.NewDevice(storage.DefaultDeviceConfig("bench", 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(kernel.Time(i)*100, uint64(i), i%8 == 0)
	}
}

// BenchmarkKernelHookFire measures an attached hook-site firing.
func BenchmarkKernelHookFire(b *testing.B) {
	k := kernel.New()
	var sink float64
	k.Attach("site", func(_ *kernel.Kernel, _ string, args []float64) { sink += args[0] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Fire("site", 1)
	}
	_ = sink
}
