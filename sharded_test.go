package guardrails

// End-to-end sharded-execution tests over the assembly the benchmark's
// fire_sharded workload uses: one kernel.Pool, one featurestore.Sharded
// folded at every barrier, and per shard a monitor runtime with its own
// telemetry sink and provenance lane. Each table runs at K = 1, 2 and 4
// shards in the same go test run.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
)

// shardWidths are the pool widths every sharded table runs at.
var shardWidths = []int{1, 2, 4}

// shardedRun is one pool of shard systems, each a full kernel +
// feature-store cell + runtime triple with its own observability
// planes, coupled only at the pool barrier where the registered feature
// aggregates are folded and broadcast.
type shardedRun struct {
	pool   *kernel.Pool
	stores *featurestore.Sharded
	shards []*System
}

// newShardedRun builds an n-shard run with the default barrier quantum.
// Every shard gets a telemetry sink retaining eventCap events and a
// provenance lane keeping 1 in healthyEvery healthy records.
func newShardedRun(n, eventCap, healthyEvery int) *shardedRun {
	s := &shardedRun{pool: kernel.NewPool(n, 0), stores: featurestore.NewSharded(n)}
	s.pool.OnBarrier(func(kernel.Time, uint64) { s.stores.Aggregate() })
	for i := 0; i < n; i++ {
		k, st := s.pool.Shard(i), s.stores.Shard(i)
		sys := &System{Kernel: k, Store: st, Runtime: monitor.New(k, st)}
		sys.AttachTelemetry(eventCap)
		sys.AttachProvenance(eventCap, healthyEvery)
		s.shards = append(s.shards, sys)
	}
	return s
}

// lanes renders every shard's flight trace and provenance lane.
func (s *shardedRun) lanes(t *testing.T) (traces, provs [][]byte) {
	t.Helper()
	for _, sys := range s.shards {
		traces = append(traces, trace(t, sys.Telemetry()))
		provs = append(provs, provJSON(t, sys.Provenance()))
	}
	return traces, provs
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
// the dead-letter count) and 24 seeded random cases.
func shardCases() []shardCase {
	cases := []shardCase{{
		name: "telemetry-watch", spec: telemetrySpec, opts: Options{RetryMax: 1},
		period: 50 * Millisecond, from: Second, to: 2 * Second,
		lo: 0.5, hi: 2.5, until: 3 * Second,
	}}
	periods := []Time{100 * kernel.Microsecond, 250 * kernel.Microsecond, 500 * kernel.Microsecond,
		Millisecond, 2 * Millisecond, 5 * Millisecond}
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
// one-shard pool, and the flight-recorder traces and provenance lanes
// must be byte-identical — same events, same order, same sequence
// numbers — with the same counters and monitor stats.
func TestShardedOneShardReproducesSingleLoopTrace(t *testing.T) {
	var violations uint64
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			plain := NewSystem()
			plainSink := plain.AttachTelemetry(4096)
			plain.AttachProvenance(4096, 8)
			c.drive(t, plain, 0)
			plain.Kernel.RunUntil(c.until)

			ss := newShardedRun(1, 4096, 8)
			c.drive(t, ss.shards[0], 0)
			ss.pool.RunUntil(c.until)

			counters := plainSink.Snapshot().Counters
			if counters["evals_total"] == 0 {
				t.Fatalf("plain run evaluated nothing; comparison is vacuous: %v", counters)
			}
			violations += counters["violations_total"]
			traces, provs := ss.lanes(t)
			if want := trace(t, plainSink); !bytes.Equal(want, traces[0]) {
				t.Fatalf("one-shard trace diverges from single-loop trace (%d vs %d bytes)",
					len(want), len(traces[0]))
			}
			if want := provJSON(t, plain.Provenance()); !bytes.Equal(want, provs[0]) {
				t.Fatalf("one-shard provenance lane diverges from single-loop lane (%d vs %d bytes)",
					len(want), len(provs[0]))
			}
			if got := ss.shards[0].Telemetry().Snapshot().Counters; !reflect.DeepEqual(counters, got) {
				t.Errorf("counters diverge:\nplain   %v\nsharded %v", counters, got)
			}
			for _, m := range plain.Runtime.Monitors() {
				if want, got := m.Stats(), ss.shards[0].Runtime.Monitor(m.Name()).Stats(); want != got {
					t.Errorf("%s stats diverge:\nplain   %+v\nsharded %+v", m.Name(), want, got)
				}
			}
		})
	}
	if violations == 0 {
		t.Fatal("no case violated its rule; the table never compares an action")
	}
}

// TestShardedRunsAreDeterministic replays every case twice on K shards:
// each shard's flight-recorder trace and provenance lane must be
// byte-identical across runs even though shards execute on concurrent
// goroutines.
func TestShardedRunsAreDeterministic(t *testing.T) {
	var violations uint64
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range shardWidths {
				t.Run(fmt.Sprintf("K=%d", n), func(t *testing.T) {
					run := func() (traces, provs [][]byte, counters []map[string]uint64) {
						ss := newShardedRun(n, 1<<14, 8)
						for i, sys := range ss.shards {
							c.drive(t, sys, i)
						}
						ss.pool.RunUntil(c.until)
						for _, sys := range ss.shards {
							counters = append(counters, sys.Telemetry().Snapshot().Counters)
						}
						traces, provs = ss.lanes(t)
						return traces, provs, counters
					}
					t1, p1, c1 := run()
					t2, p2, c2 := run()
					for i := range t1 {
						if len(t1[i]) == 0 {
							t.Fatalf("shard %d trace empty", i)
						}
						if !bytes.Equal(t1[i], t2[i]) {
							t.Errorf("shard %d trace diverged across identical runs", i)
						}
						if !bytes.Equal(p1[i], p2[i]) {
							t.Errorf("shard %d provenance lane diverged across identical runs", i)
						}
						if !reflect.DeepEqual(c1[i], c2[i]) {
							t.Errorf("shard %d counters diverged:\nrun1 %v\nrun2 %v", i, c1[i], c2[i])
						}
						if c1[i]["evals_total"] == 0 {
							t.Fatalf("shard %d evaluated nothing: %v", i, c1[i])
						}
						violations += c1[i]["violations_total"]
					}
				})
			}
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
	const feedback = `
guardrail global-throttle {
    trigger: { TIMER(0, 1e6) }, // every 1ms, once per aggregation epoch
    rule: { LOAD(err_rate_global) <= 0.5 },
    action: { SAVE(throttle, 1) }
}`
	for _, n := range shardWidths {
		t.Run(fmt.Sprintf("K=%d", n), func(t *testing.T) {
			ss := newShardedRun(n, 4096, 0)
			global := ss.stores.RegisterAggregate("err_rate", featurestore.AggMean)
			if global != featurestore.GlobalKey("err_rate") || global != "err_rate_global" {
				t.Fatalf("global key = %q", global)
			}
			for _, sh := range ss.shards {
				if _, err := sh.LoadGuardrails(feedback, Options{}); err != nil {
					t.Fatal(err)
				}
				sh.Kernel.Every(0, Millisecond, 0, func(now Time) {
					v := 0.2
					if now >= Second {
						v = 0.9 // every shard's error rate spikes at t=1s
					}
					sh.Store.Save("err_rate", v)
				})
			}

			ss.pool.RunUntil(990 * Millisecond)
			for i, sh := range ss.shards {
				if got := sh.Store.Load("throttle"); got != 0 {
					t.Fatalf("shard %d throttled before the aggregate crossed: %g", i, got)
				}
				if got := sh.Store.Load(global); got != 0.2 {
					t.Errorf("shard %d %s = %g, want 0.2", i, global, got)
				}
			}
			ss.pool.RunUntil(1100 * Millisecond)
			// The epoch cell every shard reads is the pool's barrier count.
			wantEpoch := float64(ss.pool.Epoch())
			evals := ss.shards[0].Runtime.Monitor("global-throttle").Stats().Evals
			for i, sh := range ss.shards {
				if got := sh.Store.Load("throttle"); got != 1 {
					t.Errorf("shard %d not throttled after aggregate spike: %g", i, got)
				}
				if got := sh.Store.Load(global); got != 0.9 {
					t.Errorf("shard %d %s = %g, want 0.9", i, global, got)
				}
				if got := sh.Store.Load(featurestore.EpochKey); got != wantEpoch {
					t.Errorf("shard %d epoch cell = %g, want %g", i, got, wantEpoch)
				}
				// Replicas on shards in lockstep evaluate equally often.
				if got := sh.Runtime.Monitor("global-throttle").Stats().Evals; got != evals || got == 0 {
					t.Errorf("shard %d evals = %d, shard 0 = %d", i, got, evals)
				}
			}
		})
	}
}

// TestPlanesReconcileAtEveryBarrier: each shard's telemetry sink and
// provenance recorder belong to the shard's goroutine, which writes them
// with plain stores. A barrier callback runs while every shard is
// parked, so there each shard's planes must agree exactly with its
// monitors' Stats — at every barrier, not just at the end. Under -race
// this also holds the ownership rule: four shards write their planes
// concurrently, and only the barrier reads them.
func TestPlanesReconcileAtEveryBarrier(t *testing.T) {
	// tick-watch runs on every hook fire and REPORTs (one action event
	// per acting evaluation); timer-watch runs every 250µs and SAVEs
	// (no flight event).
	c := shardCase{
		spec: `
guardrail tick-watch {
    trigger: { FUNCTION(tick) },
    rule: { LOAD(sig) <= 1.0 },
    action: { REPORT(LOAD(sig)) }
}
guardrail timer-watch {
    trigger: { TIMER(0, 250000) },
    rule: { LOAD(sig) <= 1.5 },
    action: { SAVE(alert, 1) }
}`,
		fires: true, period: 100 * kernel.Microsecond,
		from: 20 * Millisecond, to: 60 * Millisecond,
		lo: 0.5, hi: 2.5, until: 100 * Millisecond,
	}
	const shards = 4
	ss := newShardedRun(shards, 1<<10, 1) // every healthy evaluation recorded
	for i, sys := range ss.shards {
		c.drive(t, sys, i)
	}
	barriers := 0
	var violations uint64
	ss.pool.OnBarrier(func(now kernel.Time, _ uint64) {
		barriers++
		violations = 0
		for i, sys := range ss.shards {
			var st monitor.Stats
			var reports uint64
			for _, m := range sys.Runtime.Monitors() {
				s := m.Stats()
				st.Evals += s.Evals
				st.Violations += s.Violations
				st.VMSteps += s.VMSteps
				st.Traps += s.Traps + s.LoadFaults
				if m.Name() == "tick-watch" {
					reports = s.ActionsFired
				}
			}
			violations += st.Violations
			fires := sys.Kernel.FireCount("tick")
			sink, rec := sys.Telemetry(), sys.Provenance()
			cs := &sink.Counters
			for _, row := range []struct {
				what      string
				got, want uint64
			}{
				{"faults", st.Traps, 0},
				{"hook_fires_total", cs.HookFires.Value(), fires},
				{"evals_total", cs.Evals.Value(), st.Evals},
				{"violations_total", cs.Violations.Value(), st.Violations},
				{"vm_steps_total", cs.VMSteps.Value(), st.VMSteps},
				// hook_fire, eval, violation and action events.
				{"flight events", sink.Flight().Total(), fires + st.Evals + st.Violations + reports},
				// One record per evaluation: healthy ones are sampled 1 in 1.
				{"provenance records", rec.Total(), st.Evals},
			} {
				if row.got != row.want {
					t.Errorf("barrier at %v, shard %d: %s = %d, want %d", now, i, row.what, row.got, row.want)
				}
			}
		}
	})
	ss.pool.RunUntil(c.until)
	if want := int(c.until / kernel.DefaultQuantum); barriers != want {
		t.Errorf("%d barriers ran, want %d", barriers, want)
	}
	if violations == 0 {
		t.Error("no shard violated a rule; the flight count never includes a violation or an action")
	}
}
