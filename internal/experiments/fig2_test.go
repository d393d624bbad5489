package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"guardrails/internal/kernel"
)

// TestFig2Shape verifies the headline reproduction: the guardrail fires
// shortly after the shift and the guarded system's steady-state latency
// beats the unguarded one.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 run is seconds-long")
	}
	cfg := DefaultFig2Config(1)
	r, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) == 0 {
		t.Fatal("empty series")
	}
	if r.GuardrailFiredAt == 0 {
		t.Fatal("guardrail never fired")
	}
	if r.GuardrailFiredAt <= r.ShiftAt {
		t.Errorf("guardrail fired at %v, before the shift at %v", r.GuardrailFiredAt, r.ShiftAt)
	}
	// Detection within a few seconds of the shift (1s timer + window fill).
	if r.GuardrailFiredAt > r.ShiftAt+10*kernel.Second {
		t.Errorf("detection too slow: shift %v, fired %v", r.ShiftAt, r.GuardrailFiredAt)
	}
	if r.FalseSubmitRateAtTrigger <= 0.05 {
		t.Errorf("trigger rate = %v, want > threshold", r.FalseSubmitRateAtTrigger)
	}
	// The paper's claim: after mitigation the guarded average is lower.
	if r.GuardedTailUS >= r.UnguardedTailUS {
		t.Errorf("guarded tail %.1fus should beat unguarded %.1fus",
			r.GuardedTailUS, r.UnguardedTailUS)
	}
	// And the unguarded system visibly degraded from the calm phase.
	if r.UnguardedTailUS < 1.2*r.CalmUS {
		t.Errorf("unguarded degradation too small: calm %.1f, tail %.1f",
			r.CalmUS, r.UnguardedTailUS)
	}
	out := r.Render()
	for _, want := range []string{"Figure 2", "guardrail fired", "linnos_w_guardrails"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFig2SnapshotDigests pins the Figure-2 snapshot at three seeds, not
// only the committed seed-1 BENCH_fig2.json: training is full size, the
// simulated phases are shortened to 4 s + 8 s. The digests were recorded
// before the nn kernel, the engine's feature buffer and the percentile
// selection were touched; a change to any arithmetic order in training,
// inference or the summary shows up here.
func TestFig2SnapshotDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("three fig2 runs are seconds-long")
	}
	for _, c := range []struct {
		seed   int64
		digest string
	}{
		{1, "1d0ac636f1ab42c8e830ba98f0286d5738881f5578f27e2e19474d00ae993dee"},
		{5, "030ec3b2673869d29ba88fee6fce2f1c61e65cc570fd4f6ce2f33bae50aa895a"},
		{11, "a67db0e142e5efa3334b382eae8fa0f6354d3c55f1e00e790f3c661621a5103e"},
	} {
		cfg := DefaultFig2Config(c.seed)
		cfg.CalmSeconds, cfg.ShiftSeconds = 4, 8
		cfg.CollectLatencies = true
		r, err := RunFig2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var snapshot bytes.Buffer
		if err := NewBenchFig2(cfg, r).WriteJSON(&snapshot); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(snapshot.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("seed %d: snapshot digest %s, want %s\n%s", c.seed, got, c.digest, snapshot.Bytes())
		}
	}
}

// TestSummarizeLatenciesMatchesSort: the three nested selections return
// exactly what sorting and indexing did.
func TestSummarizeLatenciesMatchesSort(t *testing.T) {
	bySort := func(ns []float64) LatencySummary {
		ns = append([]float64(nil), ns...)
		sort.Float64s(ns)
		var sum float64
		for _, v := range ns {
			sum += v
		}
		q := func(p float64) float64 { return ns[int(p*float64(len(ns)-1))] / 1e3 }
		return LatencySummary{Count: len(ns), MeanUS: sum / float64(len(ns)) / 1e3, P50US: q(0.50), P95US: q(0.95), P99US: q(0.99)}
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(n int, gen func() float64) []float64 {
		ns := make([]float64, n)
		for i := range ns {
			ns[i] = gen()
		}
		return ns
	}
	type tc struct {
		name string
		ns   []float64
	}
	ascending := fill(1000, func() float64 { return float64(rng.Intn(1 << 20)) })
	sort.Float64s(ascending)
	cases := []tc{
		{"n=1", []float64{7000}},
		{"n=2", []float64{9000, 3000}},
		{"n=3", []float64{5000, 9000, 1000}},
		{"n=3 all equal", []float64{4000, 4000, 4000}},
		{"all equal", fill(1000, func() float64 { return 250000 })},
		{"ascending", ascending},
	}
	for _, n := range []int{4, 10, 99, 100, 101, 1000, 4097, 100000} {
		cases = append(cases,
			tc{fmt.Sprintf("random n=%d", n), fill(n, func() float64 { return float64(rng.Int63n(20_000_000)) })},
			// A few distinct values, as a device that is either fast or
			// in a GC pause gives.
			tc{fmt.Sprintf("duplicate-heavy n=%d", n), fill(n, func() float64 { return float64(100000 * (1 + rng.Intn(5))) })})
	}
	if got := summarizeLatencies(nil); got != (LatencySummary{}) {
		t.Errorf("empty input: %+v", got)
	}
	for _, c := range cases {
		want := bySort(c.ns)
		if got := summarizeLatencies(c.ns); got != want {
			t.Errorf("%s: selection %+v, sort %+v", c.name, got, want)
		}
	}
}
