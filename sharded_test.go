package guardrails

// End-to-end sharded-execution tests. The CI matrix runs these (and
// everything else at the root) under GUARDRAILS_SHARDS={1,4}: tests
// that scale with the knob read shardCount, so the same suite checks
// the single-loop and multi-core configurations.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// shardCount is the env knob for the CI shard matrix; tests default to
// two shards when it is unset.
func shardCount(t *testing.T) int {
	t.Helper()
	v := os.Getenv("GUARDRAILS_SHARDS")
	if v == "" {
		return 2
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad GUARDRAILS_SHARDS=%q: want a positive integer", v)
	}
	return n
}

// shardCase is one seeded guardrail-plus-workload the sharded
// differential tests run: a single threshold rule over sig, checked on
// a TIMER or at a FUNCTION hook, with a SAVE or REPORT action, driven
// by a periodic writer that pushes sig over the threshold inside
// [from, to).
type shardCase struct {
	name     string
	spec     string
	opts     Options
	fires    bool // FUNCTION trigger: the writer fires the tick hook
	period   Time // writer period
	from, to Time // sig violates the rule while from <= now < to
	lo, hi   float64
	until    Time
}

// shardCases is the differential table: the telemetry suite's own
// workload (REPORT plus a DEPRIORITIZE that walks the retry ladder into
// the dead-letter ring) and 24 seeded random cases.
func shardCases() []shardCase {
	cases := []shardCase{{
		name: "telemetry-watch", spec: telemetrySpec, opts: Options{RetryMax: 1},
		period: 50 * Millisecond, from: Second, to: 2 * Second,
		lo: 0.5, hi: 2.5, until: 3 * Second,
	}}
	periods := []Time{100 * Microsecond, 250 * Microsecond, 500 * Microsecond, Millisecond, 2 * Millisecond, 5 * Millisecond}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 24; i++ {
		c := shardCase{
			fires:  rng.Intn(2) == 0,
			period: periods[rng.Intn(len(periods))],
			until:  100 * Millisecond,
		}
		threshold := 0.5 + 4.5*rng.Float64()
		c.lo, c.hi = threshold/2, threshold*1.5
		c.from = Time(rng.Int63n(int64(c.until / 2)))
		c.to = c.from + Time(rng.Int63n(int64(c.until/2)))
		trigger := fmt.Sprintf("TIMER(0, %d)", periods[rng.Intn(len(periods))])
		if c.fires {
			trigger = "FUNCTION(tick)"
		}
		action := "SAVE(alert, 1)"
		if rng.Intn(2) == 0 {
			action = "REPORT(LOAD(sig))"
		}
		c.name = fmt.Sprintf("%02d-%s-%s", i, trigger[:5], action[:4])
		c.spec = fmt.Sprintf(`
guardrail shard-watch {
    trigger: { %s },
    rule: { LOAD(sig) <= %g },
    action: { %s }
}`, trigger, threshold, action)
		cases = append(cases, c)
	}
	return cases
}

// drive loads the case's guardrail on sys and installs its writer.
// Shard i writes every (i+1) periods and enters the violating window i
// periods late, so the shards of one run do different work.
func (c shardCase) drive(t *testing.T, sys *System, shard int) {
	t.Helper()
	if _, err := sys.LoadGuardrails(c.spec, c.opts); err != nil {
		t.Fatal(err)
	}
	skew := Time(shard) * c.period
	j := shard
	sys.Kernel.Every(0, Time(shard+1)*c.period, c.until, func(now Time) {
		v := c.lo
		if now >= c.from+skew && now < c.to+skew {
			v = c.hi
		}
		sys.Store.Save("sig", v)
		if c.fires {
			sys.Kernel.Fire("tick", float64(j))
		}
		j++
	})
}

// trace renders a sink's flight recorder.
func trace(t *testing.T, sink *Telemetry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := sink.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestShardedOneShardReproducesSingleLoopTrace is the compatibility
// acceptance check: a one-shard pool must be the existing kernel, not an
// approximation of it. Every case runs on a plain System and on a
// one-shard ShardedSystem, and the flight-recorder traces must be
// byte-identical — same events, same order, same sequence numbers —
// with the same counters and monitor stats.
func TestShardedOneShardReproducesSingleLoopTrace(t *testing.T) {
	var violations uint64
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			plain := NewSystem()
			plainSink := plain.AttachTelemetry(4096)
			c.drive(t, plain, 0)
			plain.Kernel.RunUntil(c.until)

			ss := NewShardedSystem(1)
			sinks := ss.AttachTelemetry(4096)
			c.drive(t, ss.Shard(0), 0)
			ss.RunUntil(c.until)

			want := trace(t, plainSink)
			counters := plainSink.Snapshot().Counters
			if counters["evals_total"] == 0 {
				t.Fatalf("plain run evaluated nothing; comparison is vacuous: %v", counters)
			}
			violations += counters["violations_total"]
			if got := trace(t, sinks[0]); !bytes.Equal(want, got) {
				t.Fatalf("one-shard trace diverges from single-loop trace (%d vs %d bytes)",
					len(want), len(got))
			}
			// The merged fleet view of one shard is that shard.
			if !bytes.Equal(want, trace(t, ss.Telemetry())) {
				t.Fatal("merged one-shard trace diverges from single-loop trace")
			}
			if got := sinks[0].Snapshot().Counters; !reflect.DeepEqual(counters, got) {
				t.Errorf("counters diverge:\nplain   %v\nsharded %v", counters, got)
			}
			for _, m := range plain.Runtime.Monitors() {
				if want, got := m.Stats(), ss.FleetStats(m.Name()); want != got {
					t.Errorf("%s stats diverge:\nplain   %+v\nsharded %+v", m.Name(), want, got)
				}
			}
		})
	}
	if violations == 0 {
		t.Fatal("no case violated its rule; the table never compares an action")
	}
}

// TestShardedRunsAreDeterministic replays every case twice on K
// shards: each shard's flight-recorder trace and the merged fleet trace
// must be byte-identical across runs even though shards execute on
// concurrent goroutines.
func TestShardedRunsAreDeterministic(t *testing.T) {
	n := shardCount(t)
	var violations uint64
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			run := func() ([][]byte, []byte, map[string]uint64) {
				ss := NewShardedSystem(n)
				ss.AttachTelemetry(1 << 14)
				var traces [][]byte
				for i := 0; i < n; i++ {
					c.drive(t, ss.Shard(i), i)
				}
				ss.RunUntil(c.until)
				for i := 0; i < n; i++ {
					traces = append(traces, trace(t, ss.ShardTelemetry(i)))
				}
				return traces, trace(t, ss.Telemetry()), ss.Telemetry().Snapshot().Counters
			}

			t1, m1, c1 := run()
			t2, m2, c2 := run()
			for i := range t1 {
				if len(t1[i]) == 0 {
					t.Fatalf("shard %d trace empty", i)
				}
				if !bytes.Equal(t1[i], t2[i]) {
					t.Errorf("shard %d trace diverged across identical runs", i)
				}
			}
			if !bytes.Equal(m1, m2) {
				t.Error("merged trace diverged across identical runs")
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Errorf("merged counters diverged:\nrun1 %v\nrun2 %v", c1, c2)
			}
			if c1["evals_total"] == 0 {
				t.Fatalf("workload evaluated nothing: %v", c1)
			}
			violations += c1["violations_total"]
		})
	}
	if violations == 0 {
		t.Fatal("no case violated its rule")
	}
}

// TestShardedEpochFeedback is the cross-shard SAVE/LOAD feedback loop
// end to end: every shard SAVEs a local err_rate, the barrier folds the
// contributions into err_rate_global on all shards, and a replicated
// guardrail LOADs the aggregate and throttles — on every shard at the
// same epoch, because the broadcast is barrier-atomic.
func TestShardedEpochFeedback(t *testing.T) {
	n := shardCount(t)
	ss := NewShardedSystem(n)
	ss.AttachTelemetry(4096)
	global := ss.RegisterAggregate("err_rate", AggMean)
	if global != GlobalKey("err_rate") || global != "err_rate_global" {
		t.Fatalf("global key = %q", global)
	}

	const feedback = `
guardrail global-throttle {
    trigger: { TIMER(0, 1e6) }, // every 1ms, once per aggregation epoch
    rule: { LOAD(err_rate_global) <= 0.5 },
    action: { SAVE(throttle, 1) }
}`
	if _, err := ss.LoadGuardrails(feedback, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sh := ss.Shard(i)
		sh.Kernel.Every(0, Millisecond, 0, func(now Time) {
			v := 0.2
			if now >= Second {
				v = 0.9 // every shard's error rate spikes at t=1s
			}
			sh.Store.Save("err_rate", v)
		})
	}

	ss.RunUntil(990 * Millisecond)
	for i := 0; i < n; i++ {
		if got := ss.Shard(i).Store.Load("throttle"); got != 0 {
			t.Fatalf("shard %d throttled before the aggregate crossed: %g", i, got)
		}
		if got := ss.Shard(i).Store.Load(global); got != 0.2 {
			t.Errorf("shard %d %s = %g, want 0.2", i, global, got)
		}
	}
	ss.RunUntil(1100 * Millisecond)
	wantEpoch := float64(ss.Stores.Epoch())
	for i := 0; i < n; i++ {
		sh := ss.Shard(i)
		if got := sh.Store.Load("throttle"); got != 1 {
			t.Errorf("shard %d not throttled after aggregate spike: %g", i, got)
		}
		if got := sh.Store.Load(global); got != 0.9 {
			t.Errorf("shard %d %s = %g, want 0.9", i, global, got)
		}
		if got := sh.Store.Load(EpochKey); got != wantEpoch {
			t.Errorf("shard %d epoch cell = %g, want %g", i, got, wantEpoch)
		}
	}
	if ss.Stores.Epoch() != ss.Pool.Epoch() {
		t.Errorf("store epochs (%d) out of step with pool barriers (%d)",
			ss.Stores.Epoch(), ss.Pool.Epoch())
	}
	// The fleet view sums the replicas' activity.
	fleet := ss.FleetStats("global-throttle")
	per := ss.Shard(0).Runtime.Monitor("global-throttle").Stats()
	if fleet.Evals != per.Evals*uint64(n) {
		t.Errorf("fleet evals = %d, want %d shards × %d", fleet.Evals, n, per.Evals)
	}
}

// TestShardedFleetRolloutPromotes drives the full control plane on a
// sharded system: incumbents replicated on every shard, a healthy
// candidate staged through shadow and canary by the fleet controller,
// and a fleet-wide promotion that advances every shard's generation.
func TestShardedFleetRolloutPromotes(t *testing.T) {
	n := shardCount(t)
	ss := NewShardedSystem(n)
	ss.AttachTelemetry(1 << 15)

	const inc = `
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.5 },
    action: { SAVE(alert, 1) }
}`
	cs, err := CompileSpec(inc)
	if err != nil {
		t.Fatal(err)
	}
	fleet := ss.NewFleetController()
	for i := 0; i < n; i++ {
		if _, err := ss.Shard(i).Runtime.Load(cs[0], Options{}); err != nil {
			t.Fatal(err)
		}
		fleet.Controller(i).Adopt(cs)
		sh := ss.Shard(i)
		j := 0
		sh.Kernel.Every(0, Millisecond, 0, func(now Time) {
			sh.Store.Save("lat_ma", 0.10+0.05*float64(j%10))
			sh.Kernel.Fire("io_done", 0)
			j++
		})
	}

	cand, err := CompileSpec(`
guardrail lat-guard {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.56 },
    action: { SAVE(alert, 1) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RolloutConfig{ShadowWindow: 200 * Millisecond, CanaryWindow: 400 * Millisecond}
	if err := fleet.Begin(cand, cfg); err != nil {
		t.Fatal(err)
	}
	ss.RunUntil(2 * Second)

	if got := fleet.Phase(); got != RolloutPromoted {
		t.Fatalf("fleet phase = %s (%v), want promoted", got, fleet.Phases())
	}
	for i := 0; i < n; i++ {
		if gen := ss.Shard(i).Kernel.Generation(); gen != 2 {
			t.Errorf("shard %d kernel generation = %d, want 2", i, gen)
		}
		if ss.Shard(i).Runtime.Monitor("lat-guard") == nil {
			t.Errorf("shard %d lost lat-guard across promotion", i)
		}
	}
	if got := ss.Telemetry().Counters.RolloutPromotions.Value(); got != uint64(n) {
		t.Errorf("merged rollout_promotions_total = %d, want %d (one per shard)", got, n)
	}
	if stats := ss.FleetStats("lat-guard"); stats.Evals == 0 || stats.ActionsFired == 0 {
		t.Errorf("fleet stats show no activity: %+v", stats)
	}
}
