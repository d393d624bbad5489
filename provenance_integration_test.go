package guardrails

// End-to-end decision-provenance tests: the "why" records captured at
// every guardrail evaluation must (a) reconcile exactly with the
// monitors' own accounting for the always-on kinds — every violation,
// fault, and rollback has precisely one record — and (b) export
// byte-identical JSON for a fixed-seed run, single kernel and every
// shard of a pool alike, so provenance is as deterministic as the
// simulation it observes.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/provenance"
	"guardrails/internal/rollout"
)

// provSpec violates on the mid-run signal window and REPORTs, so a run
// exercises healthy evals, violations, and fired actions.
const provSpec = `
guardrail prov-watch {
    trigger: {
        TIMER(0, 1e8) // every 100ms
    },
    rule: {
        LOAD(sig) <= 1.0
    },
    action: {
        REPORT(LOAD(sig))
    }
}`

// runProvSystem drives a deterministic run: healthy signal, a violation
// window, and a corrupt (NaN) window that faults every read.
func runProvSystem(t *testing.T, healthyEvery int) (*System, []*Monitor) {
	t.Helper()
	sys := NewSystem()
	sys.AttachTelemetry(4096)
	sys.AttachProvenance(4096, healthyEvery)
	mons, err := sys.LoadGuardrails(provSpec, Options{})
	if err != nil {
		t.Fatalf("loading guardrail: %v", err)
	}
	nan := 0.0
	sys.Kernel.Every(0, 50*Millisecond, 4*Second, func(now Time) {
		switch {
		case now >= Second && now < 2*Second:
			sys.Store.Save("sig", 2.5) // violation window
		case now >= 2*Second && now < 3*Second:
			sys.Store.Save("sig", nan/nan) // corrupt window: NaN reads fault
		default:
			sys.Store.Save("sig", 0.5)
		}
	})
	sys.Kernel.RunUntil(4 * Second)
	return sys, mons
}

// countKinds tallies the retained records by kind.
func countKinds(recs []provenance.Record) map[string]int {
	out := map[string]int{}
	for _, r := range recs {
		out[r.Kind.String()]++
	}
	return out
}

// TestProvenanceReconcilesWithMonitorStats is the acceptance check for
// the always-on kinds: one KindViolation record per violation counter
// increment, one KindFault record per fault counter increment — same
// code points, no sampling, nothing evicted at this capacity.
func TestProvenanceReconcilesWithMonitorStats(t *testing.T) {
	sys, mons := runProvSystem(t, 0) // drop all healthy fires
	st := mons[0].Stats()
	if st.Violations == 0 || st.Traps == 0 {
		t.Fatalf("run exercised nothing: stats = %+v", st)
	}
	snap := sys.Telemetry().Snapshot()
	recs := sys.Provenance().Records()
	kinds := countKinds(recs)

	if got := uint64(kinds["violation"]); got != st.Violations || got != snap.Counters["violations_total"] {
		t.Errorf("violation records = %d, monitor stats = %d, counter = %d",
			kinds["violation"], st.Violations, snap.Counters["violations_total"])
	}
	if got := uint64(kinds["fault"]); got != st.Traps || got != snap.Counters["monitor_faults_total"] {
		t.Errorf("fault records = %d, monitor traps = %d, counter = %d",
			kinds["fault"], st.Traps, snap.Counters["monitor_faults_total"])
	}
	if kinds["eval"] != 0 {
		t.Errorf("healthyEvery=0 retained %d healthy records", kinds["eval"])
	}

	// Every record carries the capture a postmortem needs.
	for i, r := range recs {
		if r.Monitor != "prov-watch" {
			t.Fatalf("record %d: monitor %q", i, r.Monitor)
		}
		switch r.Kind {
		case provenance.KindViolation:
			if r.Held || r.NFeatures == 0 || r.Steps == 0 {
				t.Errorf("violation record %d incomplete: held=%v features=%d steps=%d",
					i, r.Held, r.NFeatures, r.Steps)
			}
			if r.Features[0].Key != "sig" || r.Features[0].Value != 2.5 {
				t.Errorf("violation record %d features = %+v", i, r.Features[0])
			}
		case provenance.KindFault:
			if r.FaultKind != "corrupt-load" {
				t.Errorf("fault record %d kind = %q", i, r.FaultKind)
			}
			// The patched read is captured with its substitute value.
			if r.NFeatures == 0 || !r.Features[0].Patched {
				t.Errorf("fault record %d lost the patched read: %+v", i, r.Features[0])
			}
		}
	}
}

// TestProvenanceHealthySampling: healthy fires are head-sampled 1-in-N
// per monitor, deterministically.
func TestProvenanceHealthySampling(t *testing.T) {
	sys, mons := runProvSystem(t, 4)
	st := mons[0].Stats()
	// A corrupt read faults but the evaluation still completes (patched)
	// and lands as held or violated, so healthy = evals - violations.
	held := st.Evals - st.Violations
	kinds := countKinds(sys.Provenance().Records())
	want := int((held + 3) / 4) // n%4==0 keeps fires 0, 4, 8, ...
	if kinds["eval"] != want {
		t.Errorf("healthy records = %d, want %d of %d held evals", kinds["eval"], want, held)
	}
}

// TestProvenanceRollbackRecorded: a rollout that rolls back leaves
// exactly one KindRollback record (plus the failing gate's KindGate
// trail), reconciling with rollout_rollbacks_total.
func TestProvenanceRollbackRecorded(t *testing.T) {
	sys := NewSystem()
	sys.AttachTelemetry(1 << 15)
	sys.AttachProvenance(4096, 0)
	inc, err := compile.Source(`
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.5 },
    action: { SAVE(alert, 1) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Runtime.Load(inc[0], Options{}); err != nil {
		t.Fatal(err)
	}
	ctl := rollout.NewController(sys.Runtime)
	ctl.Adopt(inc)
	i := 0
	sys.Kernel.Every(0, Millisecond, 0, func(now Time) {
		sys.Store.Save("lat_ma", 0.10+0.05*float64(i%10))
		sys.Kernel.Fire("io_done", 0)
		i++
	})
	bad, err := compile.Source(`
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.01 },
    action: { SAVE(alert_bad, 1) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rollout.Config{ShadowWindow: 200 * Millisecond, CanaryWindow: 400 * Millisecond}
	if err := ctl.Begin(bad, cfg); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.RunUntil(2 * Second)
	if got := ctl.Phase(); got != rollout.PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", got)
	}

	kinds := countKinds(sys.Provenance().Records())
	rollbacks := sys.Telemetry().Counters.RolloutRollbacks.Value()
	if rollbacks == 0 || uint64(kinds["rollback"]) != rollbacks {
		t.Errorf("rollback records = %d, counter = %d", kinds["rollback"], rollbacks)
	}
	if kinds["gate"] == 0 {
		t.Error("no gate records captured for a gated rollout")
	}
	var sawFailedGate bool
	for _, r := range sys.Provenance().Records() {
		if r.Kind == provenance.KindGate && r.GateReason != "" {
			sawFailedGate = true
			if r.Stage != "shadow" || r.Cand.Evals == 0 {
				t.Errorf("failing gate record incomplete: %+v", r)
			}
		}
		if r.Kind == provenance.KindRollback && !strings.Contains(r.Reason, "violation rate") {
			t.Errorf("rollback reason = %q", r.Reason)
		}
	}
	if !sawFailedGate {
		t.Error("no failing gate record precedes the rollback")
	}
}

// provJSON renders a recorder's export.
func provJSON(t *testing.T, rec *Provenance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProvenanceDeterministicAcrossRuns: a fixed-seed single-kernel run
// exports byte-identical provenance JSON every time.
func TestProvenanceDeterministicAcrossRuns(t *testing.T) {
	run := func() []byte {
		sys, _ := runProvSystem(t, 8)
		return provJSON(t, sys.Provenance())
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("provenance export differs across identical runs")
	}
	if !bytes.Contains(a, []byte(`"kind": "violation"`)) {
		t.Errorf("export captured nothing: %s", a)
	}
}

// driveProv loads provSpec on sys and feeds it the signal, offset by
// phase so shards of one pool do different work.
func driveProv(t *testing.T, sys *System, phase Time) {
	t.Helper()
	if _, err := sys.LoadGuardrails(provSpec, Options{}); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Every(phase, 50*Millisecond, 3*Second, func(now Time) {
		v := 0.5
		if now >= Second && now < 2*Second {
			v = 2.5
		}
		sys.Store.Save("sig", v)
	})
}

// shardedProvRun drives an n-shard pool with the guardrail replicated on
// every shard and staggered per-shard workloads, returning each shard's
// provenance lane.
func shardedProvRun(t *testing.T, shards int) [][]byte {
	t.Helper()
	ss := newShardedRun(shards, 4096, 8)
	for i, sys := range ss.shards {
		driveProv(t, sys, Time(i)*10*Millisecond)
	}
	ss.pool.RunUntil(3 * Second)
	_, provs := ss.lanes(t)
	return provs
}

// TestShardedProvenanceSingleShardByteIdentical is the -shards 1
// acceptance criterion: a one-shard pool's provenance lane is
// byte-identical to the single kernel's for the same workload.
func TestShardedProvenanceSingleShardByteIdentical(t *testing.T) {
	plain := NewSystem()
	plain.AttachProvenance(4096, 8)
	driveProv(t, plain, 0)
	plain.Kernel.RunUntil(3 * Second)
	want := provJSON(t, plain.Provenance())
	if got := shardedProvRun(t, 1)[0]; !bytes.Equal(want, got) {
		t.Errorf("one-shard provenance lane differs from the single kernel's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestShardedProvenanceRerunsByteIdentical: every shard's lane of a
// K-shard run is byte-identical across reruns — shard goroutine
// scheduling must not leak into any lane — and every shard records.
func TestShardedProvenanceRerunsByteIdentical(t *testing.T) {
	for _, n := range shardWidths {
		t.Run(fmt.Sprintf("K=%d", n), func(t *testing.T) {
			a, b := shardedProvRun(t, n), shardedProvRun(t, n)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Errorf("shard %d provenance lane differs across identical runs", i)
				}
				if !bytes.Contains(a[i], []byte(`"kind": "violation"`)) {
					t.Errorf("shard %d recorded no violation", i)
				}
			}
		})
	}
}
