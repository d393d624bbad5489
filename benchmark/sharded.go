package main

import (
	"fmt"
	"reflect"
	"time"

	"guardrails/benchmark/gen"
	"guardrails/benchmark/oracle"
	"guardrails/benchmark/span"
	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
)

// fire_sharded load shape: the RunShardThroughput shape (internal/
// experiments), seconds long. Every shardTick of simulated time each
// shard writes its feature and fires the hook shardTickFires times;
// shardBatchTicks ticks make one timed batch of FiresPerBatch fires, so
// a batch includes the event-loop hops between its ticks and, when it
// straddles a quantum boundary, the barrier wait.
const (
	shardCount      = 2
	shardTick       = 10 * kernel.Microsecond
	shardTickFires  = 8
	shardBatchTicks = gen.FiresPerBatch / shardTickFires
	shardSimSeconds = 2.5  // 4 M fires per round across both shards
	shardValueRows  = 8192 // the per-shard feature schedule repeats after this many ticks
)

// shardInputs returns shard i's input: the fire_bare guardrail over its
// own seeded feature stream, one row per tick, repeating.
func shardInputs(seed int64, shard, ticks int) *gen.FireInputs {
	in := gen.Bare(seed, fmt.Sprintf("sharded/%d", shard), shardValueRows)
	in.Batches = ticks
	in.FiresPerBatch = shardTickFires
	return in
}

// shardedSystem is one kernel pool with a guardrail per shard.
type shardedSystem struct {
	shards   int
	duration kernel.Time
	ticks    int
	pool     *kernel.Pool
	stores   *featurestore.Sharded
	inputs   []*gen.FireInputs
	mons     []*monitor.Monitor
	batchNS  [][]int64 // per shard; each shard's goroutine appends to its own
	events   int
}

// buildSharded builds an n-shard pool running the load for the given
// simulated duration.
func buildSharded(seed int64, n int, duration kernel.Time) (*shardedSystem, error) {
	s := &shardedSystem{
		shards: n, duration: duration, ticks: int(duration / shardTick),
		pool: kernel.NewPool(n, kernel.DefaultQuantum), stores: featurestore.NewSharded(n),
		batchNS: make([][]int64, n),
	}
	s.inputs = make([]*gen.FireInputs, n)
	s.mons = make([]*monitor.Monitor, n)
	s.stores.RegisterAggregate(gen.KeyLatMA, featurestore.AggMean)
	s.pool.OnBarrier(func(kernel.Time, uint64) { s.stores.Aggregate() })
	for i := 0; i < n; i++ {
		if err := s.buildShard(seed, i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildShard loads shard i's guardrail and arms its load generator.
func (s *shardedSystem) buildShard(seed int64, i int) error {
	in := shardInputs(seed, i, s.ticks)
	k, st := s.pool.Shard(i), s.stores.Shard(i)
	lat := st.Intern(gen.KeyLatMA)
	cs, err := compile.Source(in.Source)
	if err != nil {
		return err
	}
	dep, err := monitor.New(k, st).LoadDeployment(cs, monitor.DeployConfig{})
	if err != nil {
		return err
	}
	s.inputs[i], s.mons[i] = in, dep.Monitors[0]
	s.batchNS[i] = make([]int64, 0, s.ticks/shardBatchTicks+1)

	vals, tick := in.Values, 0
	var t0 time.Time
	k.Every(0, shardTick, 0, func(kernel.Time) {
		if tick%shardBatchTicks == 0 {
			t0 = time.Now()
		}
		st.SaveID(lat, vals[tick%len(vals)])
		for f := 0; f < shardTickFires; f++ {
			k.Fire(in.Site, float64(f))
		}
		tick++
		if tick%shardBatchTicks == 0 {
			s.batchNS[i] = append(s.batchNS[i], int64(time.Since(t0)))
		}
	})
	return nil
}

func (s *shardedSystem) fires() int64 { return int64(s.shards) * int64(s.ticks) * shardTickFires }

// shardedOutcome is what one fire_sharded round can be observed to have
// done; a same-seed rerun must reproduce it exactly.
type shardedOutcome struct {
	Events, Epochs     uint64
	Fires              []uint64
	Counts             []oracle.Counts
	GlobalMean, Alerts []float64
	EpochCell          []float64
}

func (s *shardedSystem) outcome() shardedOutcome {
	o := shardedOutcome{Events: uint64(s.events), Epochs: s.pool.Epoch()}
	for i := 0; i < s.shards; i++ {
		st := s.mons[i].Stats()
		o.Fires = append(o.Fires, s.pool.Shard(i).FireCount(gen.SiteIODone))
		o.Counts = append(o.Counts, oracle.Counts{Evals: st.Evals, Violations: st.Violations, ActionsFired: st.ActionsFired})
		store := s.stores.Shard(i)
		o.GlobalMean = append(o.GlobalMean, store.Load(featurestore.GlobalKey(gen.KeyLatMA)))
		o.Alerts = append(o.Alerts, store.Load(gen.KeyAlert))
		o.EpochCell = append(o.EpochCell, store.Load(featurestore.EpochKey))
	}
	return o
}

// shardedMemo is what fire_sharded keeps across the rounds of one run:
// the oracle's expectation per shard (every round replays the same
// inputs) and the first round's outcome, which every later round — a
// same-seed rerun — must match count for count.
type shardedMemo struct {
	want  []*oracle.FireOutcome
	first *shardedOutcome
}

// shardedInstance is one round of fire_sharded.
type shardedInstance struct {
	sys  *shardedSystem
	memo *shardedMemo
}

func (r *shardedInstance) batches() int { return r.sys.shards * (r.sys.ticks / shardBatchTicks) }

func (r *shardedInstance) run(rec *batchTimes, tr *span.Recorder) int64 {
	start := time.Now()
	r.sys.events = r.sys.pool.RunUntil(r.sys.duration)
	if tr != nil {
		tr.Add("Pool.RunUntil", "kernel", start, time.Now())
	}
	for _, ns := range r.sys.batchNS {
		rec.ns = append(rec.ns, ns...)
	}
	return r.sys.fires()
}

func (r *shardedInstance) verify() oracle.Verdict {
	s := r.sys
	got := s.outcome()
	var v oracle.Verdict
	// The cross-shard sum must equal the oracle's, shard by shard.
	var mean float64
	if r.memo.want == nil {
		for _, in := range s.inputs {
			r.memo.want = append(r.memo.want, oracle.Fire(in))
		}
	}
	for i, in := range s.inputs {
		want := r.memo.want[i]
		name := in.Guardrails[0].Name
		label := fmt.Sprintf("shard %d ", i)
		v.Check(label+"fires", got.Fires[i], uint64(in.Fires()))
		v.Check(label+"evals", got.Counts[i].Evals, want.Counts[name].Evals)
		v.Check(label+"violations", got.Counts[i].Violations, want.Counts[name].Violations)
		v.Check(label+"actions_fired", got.Counts[i].ActionsFired, want.Counts[name].ActionsFired)
		v.CheckValue(label+"alert", got.Alerts[i], want.Cells[gen.KeyAlert])
		st := s.mons[i].Stats()
		v.Check(label+"faults", st.Traps, 0)
		mean += want.Cells[gen.KeyLatMA] / float64(s.shards)
	}
	// The last barrier folded every shard's final contribution.
	epochs := epochsIn(s.duration)
	v.Check("epochs", got.Epochs, epochs)
	v.Check("events", got.Events, uint64(s.shards*s.ticks))
	for i := range s.inputs {
		v.CheckValue(fmt.Sprintf("shard %d %s", i, featurestore.GlobalKey(gen.KeyLatMA)), got.GlobalMean[i], mean)
		v.CheckValue(fmt.Sprintf("shard %d %s", i, featurestore.EpochKey), got.EpochCell[i], float64(epochs))
	}
	if r.memo.first == nil {
		r.memo.first = &got
	} else if !reflect.DeepEqual(*r.memo.first, got) {
		v.Check("same-seed rerun differs from the first round", 1, 0)
	}
	return v
}

var fireSharded = shardedWorkload()

func shardedWorkload() *workload {
	w := &workload{
		name:        "fire_sharded",
		why:         "a 2-shard kernel.Pool at GOMAXPROCS=2 with an aggregate folded at every barrier: barrier, per-epoch goroutines and Sharded.Aggregate, which no single-loop workload touches",
		procs:       shardCount,
		opsPerBatch: gen.FiresPerBatch,
	}
	memos := perRun[shardedMemo]{}
	w.setup = func(seed int64, scale float64) (instance, error) {
		sys, err := buildSharded(seed, shardCount, simDuration(scale))
		if err != nil {
			return nil, err
		}
		return &shardedInstance{sys: sys, memo: memos.get(seed, scale)}, nil
	}
	w.layers = shardedLayers
	return w
}

// simDuration is the simulated length of a round at the given scale, a
// whole number of batches long.
func simDuration(scale float64) kernel.Time {
	batch := shardTick * shardBatchTicks
	n := kernel.Time(shardSimSeconds * float64(kernel.Second) * scale / float64(batch))
	if n < 1 {
		n = 1
	}
	return n * batch
}

// epochsIn is how many barriers a pool passes in d of simulated time.
func epochsIn(d kernel.Time) uint64 {
	return uint64((d + kernel.DefaultQuantum - 1) / kernel.DefaultQuantum)
}

// shardedLayers is the layer replay of fire_sharded: the fire path's
// layers as on fire_bare, plus what only the pool touches — the barrier,
// the aggregation fold, and how two shards compare with one.
func shardedLayers(c *layerCtx) error {
	duration := simDuration(c.scale)
	// The fire path is shard 0's guardrail and feature stream, driven in
	// single-loop batches like fire_bare.
	in := gen.Bare(c.seed, "sharded/0", shardValueRows)
	in.Batches = scaled(bareBatches, c.scale)
	cs, err := compile.Source(in.Source)
	if err != nil {
		return err
	}
	if err := fireCommonLayers(c, in, cs); err != nil {
		return err
	}
	if err := measureSinks(c, in, false, false); err != nil {
		return err
	}

	// Barrier: an idle pool does nothing but advance epochs.
	idle := kernel.NewPool(shardCount, kernel.DefaultQuantum)
	idleFor := 2000 * kernel.DefaultQuantum
	barrierNS := c.timed("Pool.RunUntil idle", "kernel", map[string]float64{"epochs": 2000}, func() {
		idle.RunUntil(idleFor)
	}) / float64(idle.Epoch())
	c.set("kernel.barrier_ns", barrierNS)
	// The untraced round's epochs, and the share of its wall time the
	// barriers alone account for.
	epochs := float64(epochsIn(simDuration(c.full)))
	c.set("kernel.epochs", epochs)
	c.set("kernel.barrier_share", barrierNS*epochs/1e9/c.e2e.EndToEnd["wall_s"].Value)

	// Aggregation fold, per call, on a store shaped like the workload's.
	stores := featurestore.NewSharded(shardCount)
	stores.RegisterAggregate(gen.KeyLatMA, featurestore.AggMean)
	const folds = 20000
	c.set("featurestore.aggregate_ns", c.timed("Sharded.Aggregate", "featurestore", map[string]float64{"calls": folds}, func() {
		for i := 0; i < folds; i++ {
			stores.Aggregate()
		}
	})/folds)

	// Scaling: the same per-shard load on a one-shard pool.
	one, err := buildSharded(c.seed, 1, duration)
	if err != nil {
		return err
	}
	oneNS := c.timed("Pool.RunUntil 1 shard", "kernel", map[string]float64{"ops": float64(one.fires())}, func() {
		one.pool.RunUntil(duration)
	})
	two, err := buildSharded(c.seed, shardCount, duration)
	if err != nil {
		return err
	}
	twoNS := c.timed("Pool.RunUntil 2 shards", "kernel", map[string]float64{"ops": float64(two.fires())}, func() {
		two.pool.RunUntil(duration)
	})
	c.set("kernel.shard_scaling", (float64(two.fires())/twoNS)/(float64(one.fires())/oneNS))

	// Per fire, the pool adds an event every shardTickFires fires and a
	// barrier with its fold every quantum.
	firesPerEpoch := float64(c.e2e.OpsPerRound) / epochs
	ledger(c, in, c.out["kernel.event_ns"]/shardTickFires+(barrierNS+c.out["featurestore.aggregate_ns"])/firesPerEpoch)
	return nil
}
