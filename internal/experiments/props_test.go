package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"guardrails/internal/kernel"
)

// tableDigests pins each paper-table experiment at seed 1 with
// guardrail-bench's parameters: sha256 of the rendered table plus the
// newline the CLI prints after it, so each constant is what
// `guardrail-bench -only <id> -seed 1 2>/dev/null | sha256sum` prints.
// Recorded before the reachability cut removed the test-only half of
// stats, properties and trace; the experiments run on those packages and
// were checked for shape only.
var tableDigests = map[string]string{
	"p1":   "14a5a1219b99292a0393836aaa14750ff750fbe20f225f88780934587fbfa6a8",
	"p2":   "d50ebecfda98359c55398cdf23c071da953089942c12b4638daa7e2a131edc40",
	"p3":   "d4cddc901d233b151e115b176971f8d401d636b81a58a70754af7d58152916e8",
	"p4":   "383c43394ad38f949079e8b0462c5d07d931d61ad5ae172e990dc520bac0c0c4",
	"p5":   "01aa36ab0dd03425ad4f4cd8f48fe381c795ae2ba73aceb562e3658642a8fb6a",
	"p6":   "870a74fb8f93aaad48796460f720690c1c6965f9d150ba7c51f83a329f9fbd26",
	"osc":  "46bbc09fb6b92402e8dac861f7d0bb3ae528d9363be69feb137b09e0000f35f2",
	"trig": "58676a9af54dc73518cbabf7e06e0c90cd2889b34d6ae9b6ea7f6655439c2431",
}

func checkTableDigest(t *testing.T, id, rendered string) {
	t.Helper()
	sum := sha256.Sum256([]byte(rendered + "\n"))
	if got := hex.EncodeToString(sum[:]); got != tableDigests[id] {
		t.Errorf("%s: table digest %s, want %s\n%s", id, got, tableDigests[id], rendered)
	}
}

func TestP1DriftExperiment(t *testing.T) {
	r, err := RunP1Drift(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CalmPSI > 0.25 {
		t.Errorf("calm PSI = %v, should be under threshold", r.CalmPSI)
	}
	if r.ShiftedPSI < 0.25 {
		t.Errorf("shifted PSI = %v, should cross threshold", r.ShiftedPSI)
	}
	if r.DetectedAt == 0 || r.DetectedAt <= r.ShiftAt {
		t.Errorf("detection at %v (shift %v)", r.DetectedAt, r.ShiftAt)
	}
	if r.DetectedAt > r.ShiftAt+2*kernel.Second {
		t.Errorf("detection too slow: %v", r.DetectedAt-r.ShiftAt)
	}
	if r.RetrainedAt == 0 {
		t.Error("retraining never queued")
	}
	if r.Reports == 0 {
		t.Error("no violation reports")
	}
	checkTableDigest(t, "p1", r.Render())
}

func TestP2RobustnessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rows, err := RunP2Robustness(1, []float64{0, 0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	clean, noisy := rows[0], rows[3]
	if noisy.LearnedCoV <= clean.LearnedCoV {
		t.Errorf("noise should raise learned CoV: %v -> %v", clean.LearnedCoV, noisy.LearnedCoV)
	}
	if noisy.LearnedCoV <= noisy.AIMDCoV {
		t.Errorf("learned CoV %v should exceed AIMD %v under noise", noisy.LearnedCoV, noisy.AIMDCoV)
	}
	if !noisy.GuardedFired {
		t.Error("guardrail did not fire under noise")
	}
	if noisy.GuardedCoV >= noisy.LearnedCoV {
		t.Errorf("guarded CoV %v should be calmer than unguarded %v", noisy.GuardedCoV, noisy.LearnedCoV)
	}
	if clean.GuardedFired {
		t.Error("guardrail fired on a clean run")
	}
	checkTableDigest(t, "p2", RenderP2(rows))
}

func TestP3OutOfBoundsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long drive")
	}
	r, err := RunP3OutOfBounds(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.UnguardedIllegal == 0 {
		t.Fatal("unguarded policy never emitted an illegal tier (experiment vacuous)")
	}
	if r.GuardedIllegal >= r.UnguardedIllegal/2 {
		t.Errorf("guardrail barely helped: %d vs %d illegal", r.GuardedIllegal, r.UnguardedIllegal)
	}
	if r.FinalPolicy != "frequency" {
		t.Errorf("final policy = %q", r.FinalPolicy)
	}
	if r.ReplacedAt == 0 {
		t.Error("REPLACE never happened")
	}
	if r.GuardedLatencyNS >= r.UnguardedLatencyNS {
		t.Errorf("guarded latency %v should beat unguarded %v", r.GuardedLatencyNS, r.UnguardedLatencyNS)
	}
	checkTableDigest(t, "p3", r.Render())
}

func TestP4QualityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long drive")
	}
	r, err := RunP4Quality(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CalmLearnedHit <= r.CalmRandomHit {
		t.Errorf("calm: learned %v should beat random %v", r.CalmLearnedHit, r.CalmRandomHit)
	}
	if r.FinalPolicy != "lru" {
		t.Errorf("final policy = %q (guardrail did not fire)", r.FinalPolicy)
	}
	if r.ReplacedAtAccess <= 40000 {
		t.Errorf("replaced during calm phase at access %d", r.ReplacedAtAccess)
	}
	checkTableDigest(t, "p4", r.Render())
}

func TestP5OverheadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system sweep")
	}
	rows, err := RunP5Overhead(1, []kernel.Time{
		6 * kernel.Microsecond, 60 * kernel.Microsecond, 400 * kernel.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cheap, costly := rows[0], rows[2]
	if !cheap.MLFinal {
		t.Error("cheap inference should stay enabled")
	}
	if cheap.OverheadRatio >= 1 {
		t.Errorf("cheap ratio = %v", cheap.OverheadRatio)
	}
	if costly.MLFinal {
		t.Error("costly inference should be disabled by the guardrail")
	}
	if costly.GuardedMAUS >= costly.UnguardedMAUS {
		t.Errorf("guarded MA %v should beat unguarded %v at high cost",
			costly.GuardedMAUS, costly.UnguardedMAUS)
	}
	checkTableDigest(t, "p5", RenderP5(rows))
}

func TestP6FairnessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("three scheduler runs")
	}
	r, err := RunP6Fairness(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.LearnedMaxWait < 100*kernel.Millisecond {
		t.Fatalf("learned SJF never starved (experiment vacuous): %v", r.LearnedMaxWait)
	}
	if r.LearnedMeanResponse >= r.CFSMeanResponse {
		t.Errorf("learned mean %v should beat CFS %v", r.LearnedMeanResponse, r.CFSMeanResponse)
	}
	if r.FinalPicker != "cfs" {
		t.Errorf("final picker = %q", r.FinalPicker)
	}
	if r.GuardedMaxWait >= r.LearnedMaxWait {
		t.Errorf("guarded max wait %v should beat unguarded %v", r.GuardedMaxWait, r.LearnedMaxWait)
	}
	checkTableDigest(t, "p6", r.Render())
}

func TestOscillationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60s phases")
	}
	r, err := RunOscillation(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TogglesNoHysteresis < 4 {
		t.Errorf("expected oscillation without hysteresis, got %d toggles", r.TogglesNoHysteresis)
	}
	if r.TogglesWithHysteresis >= r.TogglesNoHysteresis {
		t.Errorf("hysteresis did not damp: %d vs %d",
			r.TogglesWithHysteresis, r.TogglesNoHysteresis)
	}
	checkTableDigest(t, "osc", r.Render())
}

func TestTriggerSweepExperiment(t *testing.T) {
	rows, err := RunTriggerSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TriggerRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	fast := byName["TIMER 10ms"]
	slow := byName["TIMER 5s"]
	dep := byName["dependency"]
	if fast.Detection < 0 || slow.Detection < 0 || dep.Detection < 0 {
		t.Fatalf("some mechanism never detected: %+v", rows)
	}
	if fast.Detection >= slow.Detection {
		t.Error("faster timer should detect sooner")
	}
	if fast.Evals <= slow.Evals {
		t.Error("faster timer should evaluate more")
	}
	// Dependency triggering detects within one write gap...
	if dep.Detection > 10*kernel.Millisecond {
		t.Errorf("dependency detection = %v", dep.Detection)
	}
	// ...and costs per-write evaluations (more than slow timers, fewer
	// than is possible for very fast timers on quiet stores).
	if dep.Evals == 0 {
		t.Error("dependency mechanism never evaluated")
	}
	checkTableDigest(t, "trig", RenderTriggers(rows))
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"x", "1"}, {"yyyy", "2"}},
		Notes:   []string{"a note"},
	}
	out := tb.String()
	for _, want := range []string{"demo", "long_column", "yyyy", "note: a note", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
