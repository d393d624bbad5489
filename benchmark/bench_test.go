package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"guardrails/benchmark/gen"
	"guardrails/benchmark/oracle"
	"guardrails/benchmark/span"
)

// testScale runs every workload at a thousandth of its size.
const testScale = 0.001

// Every workload, at a thousandth of its size, must agree with the
// oracle on every operation.
func TestWorkloadsMatchOracleAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := runRound(w, 11, testScale, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 {
				t.Fatalf("failed = %d of %d ops: %v", s.failed, s.ops, s.notes)
			}
			if s.ops < 1 || s.wall <= 0 || s.setup <= 0 {
				t.Errorf("ops %d, wall %v, setup %v", s.ops, s.wall, s.setup)
			}
			if w.opsPerBatch == 0 && s.batches != 1 {
				t.Errorf("batches = %d, want 1", s.batches)
			}
			if w.opsPerBatch != 0 && int64(s.batches)*w.opsPerBatch != s.ops {
				t.Errorf("%d batches of %d ops do not cover %d ops", s.batches, w.opsPerBatch, s.ops)
			}
		})
	}
}

// The counts the fire workloads report are exact and known in advance.
func TestFireCountsAreExact(t *testing.T) {
	in := gen.Wide(11, 300, wideViolShare)
	sys, err := buildFire(in, true, true)
	if err != nil {
		t.Fatal(err)
	}
	sys.play(&batchTimes{}, nil)
	var violating uint64
	for b := 0; b < in.Batches; b++ {
		if in.IsViolating(b) {
			violating++
		}
	}
	wide, watch := sys.mons[0].Stats(), sys.mons[1].Stats()
	if wide.Evals != 300*gen.FiresPerBatch || wide.Violations != violating*gen.FiresPerBatch || wide.ActionsFired != wide.Violations {
		t.Errorf("wide stats %+v with %d violating batches", wide, violating)
	}
	if watch.Evals != wide.Violations {
		t.Errorf("watcher evals = %d, want one per violating SAVE = %d", watch.Evals, wide.Violations)
	}
	if got := sys.rt.Log.Total(); got != wide.Violations {
		t.Errorf("reports = %d, want %d", got, wide.Violations)
	}
	// With the planes attached, telemetry and provenance reconcile with
	// monitor.Stats — including the always-recorded violation records.
	var v oracle.Verdict
	sys.health(&v)
	if v.Failed != 0 {
		t.Errorf("planes do not reconcile: %v", v.Notes)
	}
}

// The oracle must catch a wrong outcome: the program is handed a
// schedule in which one more batch violates than in the schedule the
// oracle evaluates.
func TestOracleFlagsWrongOutcome(t *testing.T) {
	in := gen.Wide(11, 300, wideViolShare)
	want := oracle.Fire(in)

	tampered := *in
	tampered.Values = append([]float64(nil), in.Values...)
	for b := 0; b < in.Batches; b++ {
		if !in.IsViolating(b) {
			tampered.Row(b)[0] = 1.95 // raise feature 0: group 0 now violates
			break
		}
	}
	sys, err := buildFire(&tampered, false, false)
	if err != nil {
		t.Fatal(err)
	}
	sys.play(&batchTimes{}, nil)
	v := oracle.CompareFire(sys.observed(want), want)
	if v.Failed < gen.FiresPerBatch {
		t.Fatalf("failed = %d, want at least the %d fires of the flipped batch", v.Failed, gen.FiresPerBatch)
	}
	share := float64(v.Failed) / float64(in.Fires())
	if share <= 0 {
		t.Errorf("failed_share = %v, want > 0", share)
	}
}

// A checker that misses a planted finding, or proves less than planted,
// fails the monitors concerned.
func TestOracleFlagsWrongVerdict(t *testing.T) {
	pass := checkRun{manifest: gen.BuildManifest(11, 2)}
	pass.pipeline()
	inst := &checkInstance{pass: pass}
	if v := inst.verify(); v.Failed != 0 {
		t.Fatalf("seed code disagrees with planted truth: %v", v.Notes)
	}
	inst.pass.findings = inst.pass.findings[1:]
	for p := range inst.pass.proved {
		inst.pass.proved[p] = false
		break
	}
	if v := inst.verify(); v.Failed < 2 {
		t.Errorf("failed = %d, want the dropped finding and the unproved property flagged: %v", v.Failed, v.Notes)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 2000 samples: p99 leaves 20 beyond it.
	if v, p := tailPercentile(xs, 0.99); p != 0.99 || v != 1980 {
		t.Errorf("p99 of 1..2000 = %v at p=%v, want 1980 at 0.99", v, p)
	}
	// 500 samples: p99 would leave only 5 beyond, so it backs off to the
	// percentile that leaves 10.
	if v, p := tailPercentile(xs[:500], 0.99); p != 0.98 || v != 490 {
		t.Errorf("tail of 1..500 = %v at p=%v, want 490 at 0.98", v, p)
	}
	// Under 20 samples there is no tail with 10 beyond it: the maximum,
	// labelled as such.
	if v, p := tailPercentile(xs[:7], 0.99); p != 1 || v != 7 {
		t.Errorf("tail of 1..7 = %v at p=%v, want the maximum 7 at p=1", v, p)
	}
	if v, _ := tailPercentile(nil, 0.99); !math.IsNaN(v) {
		t.Errorf("tail of nothing = %v, want NaN", v)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if s := spread(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ns_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_sec", Better: "higher", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	wide := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 0.8, m * 1.2} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b float64
		ra   []float64
		rb   []float64
		want string
	}{
		{"same", lower, 100, 101, tight(100), tight(101), verdictOK},
		{"slower beyond bound", lower, 100, 112, tight(100), tight(112), verdictRegressed},
		{"throughput drop beyond bound", higher, 100, 88, tight(100), tight(88), verdictRegressed},
		{"faster", lower, 100, 50, tight(100), tight(50), verdictOK},
		{"noisy and overlapping", lower, 100, 104, wide(100), wide(104), verdictUnresolved},
		{"noisy but every round better", lower, 100, 40, wide(100), wide(40), verdictOK},
	} {
		if got := judge(c.d, c.a, c.b, c.ra, c.rb); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opNS float64) string {
		r := resultFile{Seed: 1, Workloads: []workloadResult{{
			Name:        "fire_bare",
			EndToEnd:    map[string]Metric{"op_ns_p50": {Value: opNS, Unit: "ns"}, "ops_per_sec": {Value: 1e9 / opNS, Unit: "op/s"}, "wall_s": {Value: opNS, Unit: "s"}, "setup_s": {Value: 1, Unit: "s"}},
			RoundValues: map[string][]float64{"op_ns_p50": {opNS, opNS, opNS}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 100), write("same.json", 101), write("slow.json", 150)
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &errs); code != 0 {
		t.Errorf("equal results: exit %d\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, slow}, &out, &errs); code != 1 {
		t.Errorf("regressed result: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "1.5000 (of 100)") {
		t.Errorf("comparison does not show the verdict and the ratio with its base:\n%s", out.String())
	}
}

// The layer replay reports every declared per-layer metric, the contract
// line carries exactly the declared names, and the trace it writes is
// loadable.
func TestLayerReplayReportsEveryMetric(t *testing.T) {
	tr := span.New()
	res, err := runLayers(fireWide, 11, 0.02, time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	line := contractLine(res, true)
	if len(line.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), len(perLayerMetrics))
	}
	for _, d := range perLayerMetrics {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %+v (present %v)", d.Name, m, ok)
		}
	}
	for _, name := range []string{"vm.run_ns", "monitor.evaluate_ns", "kernel.fire_dispatch_ns", "actions.dispatch_ns", "featurestore.loads_per_op", "trace.spans"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on fire_wide, want > 0", name, line.Metrics[name].Value)
		}
	}
	if v := line.Metrics["kernel.barrier_share"].Value; v != 0 {
		t.Errorf("kernel.barrier_share = %v on a single-loop workload, want 0", v)
	}
	untraced := contractLine(res, false)
	if len(untraced.Metrics) != len(endToEndMetrics) {
		t.Errorf("untraced line has %d metrics, want %d", len(untraced.Metrics), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if m := untraced.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("%s: %+v", d.Name, m)
		}
	}

	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil || len(file.TraceEvents) < len(tr.Spans()) {
		t.Errorf("trace not loadable: %v (%d events for %d spans)", err, len(file.TraceEvents), len(tr.Spans()))
	}
	// Every span but the roots hangs off a recorded parent.
	for i, s := range tr.Spans() {
		if s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the code
// reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, code %q (or their reasons differ)", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: reason is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, %d in code", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: declared %+v, code %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: bound declared %v, code %v", kind, d.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndMetrics, true)
	check("per_layer", decl.PerLayer, perLayerMetrics, false)
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", decl.RunSeconds, decl.Paths)
	}
}

// The embedded Figure-2 oracle is the repository's committed snapshot.
func TestFig2GoldenMatchesCommittedSnapshot(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCH_fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, fig2Golden) {
		t.Error("benchmark/testdata/fig2_seed1.json differs from BENCH_fig2.json")
	}
}
