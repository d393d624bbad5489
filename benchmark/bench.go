package main

import (
	"fmt"
	"runtime"
	"time"

	"guardrails/benchmark/oracle"
	"guardrails/benchmark/span"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// batchTimes receives the wall time of every batch of a round. It is
// allocated to the round's batch count before the timed region starts,
// so recording a batch never allocates.
type batchTimes struct{ ns []int64 }

func (b *batchTimes) add(d time.Duration) { b.ns = append(b.ns, int64(d)) }

// instance is one freshly built system ready to run one round.
type instance interface {
	// batches is how many timed batches run will record.
	batches() int
	// run performs the round's fixed operation count in a closed loop,
	// timing each batch into rec, and returns the operations done. tr is
	// nil on the untraced pass; the traced pass records sampled batches.
	run(rec *batchTimes, tr *span.Recorder) (ops int64)
	// verify compares the round's observable outcome with the oracle.
	verify() oracle.Verdict
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// procs is the GOMAXPROCS the workload runs under.
	procs int
	// opsPerBatch is the operations one timed batch covers; 0 means a
	// whole round is one batch (check_manifest, fig2_stack).
	opsPerBatch int64
	// setup generates the inputs from the seed and builds a fresh system
	// at the given share of the full operation count: everything that
	// happens before the first timed operation.
	setup func(seed int64, scale float64) (instance, error)
	// layers runs the layer-replay pass.
	layers func(c *layerCtx) error
}

// perRun keeps one value per (seed, scale) across the rounds of a run:
// every round replays the same inputs, so the oracle plays them once, and
// reruns are compared with the first round.
type perRun[T any] map[string]*T

func (m perRun[T]) get(seed int64, scale float64) *T {
	key := fmt.Sprint(seed, scale)
	if m[key] == nil {
		m[key] = new(T)
	}
	return m[key]
}

// Round sizing: a run makes one discarded warm-up round, then timed
// rounds until their total reaches the -seconds budget — at least
// minRounds (minRoundsTraced for the short untraced pass that precedes a
// layer replay), at most maxRounds.
const (
	minRounds       = 3
	minRoundsTraced = 2
	maxRounds       = 40
)

// roundSample is what one timed round measured. The per-batch times are
// reduced to their median and tail at once and not kept, so the heap a
// round runs on does not grow with the rounds before it.
type roundSample struct {
	ops     int64
	wall    time.Duration
	setup   time.Duration
	batches int
	p50NS   float64 // median over batches of ns per operation
	tailNS  float64 // tail percentile of the same, at tailP
	tailP   float64
	mallocs uint64
	bytes   uint64
	failed  int64
	notes   []string
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name       string `json:"name"`
	Why        string `json:"why"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Rounds     int    `json:"rounds"`
	// BatchesPerRound and OpsPerRound describe every round's fixed work;
	// OpsPerBatch is 0 when a round is one batch.
	BatchesPerRound int   `json:"batches_per_round"`
	OpsPerRound     int64 `json:"ops_per_round"`
	OpsPerBatch     int64 `json:"ops_per_batch"`
	// Attempted and Failed count operations over all timed rounds.
	Attempted   int64    `json:"attempted"`
	Failed      int64    `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Notes       []string `json:"notes,omitempty"`
	// TailLabel says what kernel.fire_batch_p99_ns is on this workload:
	// a percentile over batches, or the slowest round.
	TailLabel string `json:"tail_label"`
	// EndToEnd holds each metric's median over the clean rounds;
	// RoundValues every round's value, so the spread can be inspected;
	// Clean which rounds the medians are over (see cleanRounds), and
	// Interfered how many they leave out.
	EndToEnd    map[string]Metric    `json:"end_to_end"`
	RoundValues map[string][]float64 `json:"round_values"`
	Clean       []bool               `json:"clean_rounds"`
	Interfered  int                  `json:"interfered_rounds"`
	// Whole holds the whole-fire numbers that may reach zero and so are
	// declared per-layer: allocs_per_op, bytes_per_op, and the batch tail.
	Whole    map[string]Metric `json:"whole"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
}

// runRound builds a fresh system and runs one round on it.
func runRound(w *workload, seed int64, scale float64, tr *span.Recorder) (roundSample, error) {
	var s roundSample
	// Collect the previous round's garbage first, so that set-up is not
	// timed with a collection of someone else's heap running behind it.
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(seed, scale)
	if err != nil {
		return s, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	s.setup = time.Since(t0)

	rec := &batchTimes{ns: make([]int64, 0, inst.batches())}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s.ops = inst.run(rec, tr)
	s.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	perOp := perOpNS(rec.ns, w.opsPerBatch, s.wall, s.ops)
	s.batches = len(perOp)
	s.p50NS = median(perOp)
	s.tailNS, s.tailP = tailPercentile(perOp, 0.99)

	v := inst.verify()
	s.failed, s.notes = v.Failed, v.Notes
	if s.failed > s.ops {
		s.failed = s.ops
	}
	return s, nil
}

// perOpNS returns a round's per-batch latencies in ns per operation. A
// round that is one batch has the single value wall / ops.
func perOpNS(batchNS []int64, batchOps int64, wall time.Duration, ops int64) []float64 {
	if batchOps == 0 || len(batchNS) == 0 {
		return []float64{float64(wall) / float64(ops)}
	}
	out := make([]float64, len(batchNS))
	for i, ns := range batchNS {
		out[i] = float64(ns) / float64(batchOps)
	}
	return out
}

// runEndToEnd is the untraced pass: it sets GOMAXPROCS, discards one
// warm-up round, then times rounds until budget is spent (at least
// atLeast of them), and reports every metric's median over the clean
// rounds.
func runEndToEnd(w *workload, seed int64, scale float64, budget time.Duration, atLeast int) (*workloadResult, error) {
	if runtime.NumCPU() < w.procs {
		return nil, fmt.Errorf("%s needs GOMAXPROCS=%d but this machine has %d CPU(s)", w.name, w.procs, runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(w.procs)
	defer runtime.GOMAXPROCS(prev)

	if _, err := runRound(w, seed, scale, nil); err != nil {
		return nil, err
	}
	var rounds []roundSample
	var spent time.Duration
	for len(rounds) < maxRounds && (len(rounds) < atLeast || spent < budget) {
		s, err := runRound(w, seed, scale, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, s)
		spent += s.wall
	}
	return summarize(w, rounds), nil
}

// interferedBeyond is how much slower than the run's fastest round, by
// median batch latency, a round may be before it is left out of the
// medians as interfered with.
const interferedBeyond = 0.10

// cleanRounds marks the rounds that were not interfered with. On a
// shared machine a round's speed is bimodal: most rounds repeat within a
// percent, and for seconds at a time a neighbour makes every operation a
// third slower (from outside the process: see README.md). A median over
// all rounds flips between the two
// modes from run to run; so rounds whose median batch latency is more
// than interferedBeyond above the fastest round's are set aside, and
// every metric is the median over the rest. A change to the program
// moves the fastest round with all the others, so this hides no
// regression; the result file keeps every round's value and says how
// many were set aside.
func cleanRounds(p50 []float64) []bool {
	best := p50[0]
	for _, v := range p50 {
		if v < best {
			best = v
		}
	}
	clean := make([]bool, len(p50))
	for i, v := range p50 {
		clean[i] = v <= best*(1+interferedBeyond)
	}
	return clean
}

// medianOf returns the median of the values whose round is kept.
func medianOf(vals []float64, keep []bool) float64 {
	var kept []float64
	for i, v := range vals {
		if keep[i] {
			kept = append(kept, v)
		}
	}
	return median(kept)
}

// summarize reduces timed rounds to the result section.
func summarize(w *workload, rounds []roundSample) *workloadResult {
	res := &workloadResult{
		Name: w.name, Why: w.why, GOMAXPROCS: w.procs, Rounds: len(rounds),
		OpsPerBatch: w.opsPerBatch, OpsPerRound: rounds[0].ops, BatchesPerRound: rounds[0].batches,
		EndToEnd: map[string]Metric{}, RoundValues: map[string][]float64{}, Whole: map[string]Metric{},
	}
	add := func(name string, v float64) { res.RoundValues[name] = append(res.RoundValues[name], v) }
	for i := range rounds {
		s := &rounds[i]
		add("ops_per_sec", float64(s.ops)/s.wall.Seconds())
		add("op_ns_p50", s.p50NS)
		add("wall_s", s.wall.Seconds())
		add("setup_s", s.setup.Seconds())
		add("allocs_per_op", float64(s.mallocs)/float64(s.ops))
		add("bytes_per_op", float64(s.bytes)/float64(s.ops))
		add("kernel.fire_batch_p99_ns", s.tailNS)
		res.TailLabel = fmt.Sprintf("p%.4g over %d batches per round", s.tailP*100, s.batches)
		res.Attempted += s.ops
		res.Failed += s.failed
		for _, n := range s.notes {
			if len(res.Notes) < 16 {
				res.Notes = append(res.Notes, n)
			}
		}
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Clean = cleanRounds(res.RoundValues["op_ns_p50"])
	for _, c := range res.Clean {
		if !c {
			res.Interfered++
		}
	}
	for _, d := range endToEndMetrics {
		res.EndToEnd[d.Name] = Metric{Value: medianOf(res.RoundValues[d.Name], res.Clean), Unit: d.Unit}
	}
	for _, name := range wholeMetrics {
		d, _ := defFor(perLayerMetrics, name)
		res.Whole[name] = Metric{Value: medianOf(res.RoundValues[name], res.Clean), Unit: d.Unit}
	}
	if w.opsPerBatch == 0 {
		// One batch per round: there is no distribution inside a round, so
		// the tail is the slowest round, interfered or not.
		s := sorted(res.RoundValues["op_ns_p50"])
		res.TailLabel = fmt.Sprintf("slowest of %d rounds (one batch per round)", len(rounds))
		res.Whole["kernel.fire_batch_p99_ns"] = Metric{Value: s[len(s)-1], Unit: "ns"}
	}
	return res
}

// layerCtx is what a layer-replay pass works with: the seed, the share
// of the full operation count to replay, the span recorder, and the
// untraced result of the same process to subtract from and compare with.
type layerCtx struct {
	w    *workload
	seed int64
	// full is the scale of the untraced pass, scale the share of the
	// full operation count the replay drives through each layer.
	full, scale float64
	tr          *span.Recorder
	e2e         *workloadResult
	out         map[string]float64
	// holdLoads is the feature-store loads one holding evaluation makes,
	// counted by the VM replay.
	holdLoads float64
	// tracedNS, when a replay sets it, is the nanoseconds per operation of
	// a full-size round it ran under the recorder: the traced side of
	// trace.overhead_share on workloads whose round is one batch.
	tracedNS float64
}

// set records a per-layer metric.
func (c *layerCtx) set(name string, v float64) { c.out[name] = v }

// timed runs fn under a span of the given layer and returns its wall
// time in nanoseconds. counts are attached to the span.
func (c *layerCtx) timed(name, layer string, counts map[string]float64, fn func()) float64 {
	id := c.tr.Begin(name, layer)
	start := time.Now()
	fn()
	ns := float64(time.Since(start))
	c.tr.End(id, counts)
	return ns
}

// replayScale is the share of a workload's operation count the layer
// replay drives through each layer.
const replayScale = 0.1

// runLayers is the traced pass. It first runs a short untraced pass (the
// same code as runEndToEnd) for the numbers the layers are subtracted
// from, then the workload's layer replay under the span recorder. The
// tracing overhead is the traced round's median batch latency against an
// untraced round's: on the batch workloads a replay-size round of each,
// run back to back; on the one-batch workloads the replay's own traced
// full-size round against the untraced pass.
func runLayers(w *workload, seed int64, scale float64, budget time.Duration, tr *span.Recorder) (*workloadResult, error) {
	res, err := runEndToEnd(w, seed, scale, budget, minRoundsTraced)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(w.procs)
	defer runtime.GOMAXPROCS(prev)

	c := &layerCtx{w: w, seed: seed, full: scale, scale: scale * replayScale, tr: tr, e2e: res, out: map[string]float64{}}
	tr.SetContext(w.name, 0)
	spansBefore := len(tr.Spans())
	root := tr.Begin(w.name, "driver")
	if err := w.layers(c); err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", w.name, err)
	}
	plainNS, tracedNS := res.EndToEnd["op_ns_p50"].Value, c.tracedNS
	if tracedNS == 0 {
		tr.SetContext(w.name, 1)
		plain, err := runRound(w, seed, c.scale, nil)
		if err != nil {
			return nil, err
		}
		id := tr.Begin("traced round", "driver")
		traced, err := runRound(w, seed, c.scale, tr)
		tr.End(id, map[string]float64{"ops": float64(traced.ops)})
		if err != nil {
			return nil, err
		}
		plainNS, tracedNS = plain.p50NS, traced.p50NS
	}
	tr.End(root, nil)
	c.set("trace.overhead_share", (tracedNS-plainNS)/plainNS)
	c.set("trace.spans", float64(len(tr.Spans())-spansBefore))

	res.PerLayer = map[string]Metric{}
	for _, d := range perLayerMetrics {
		v := c.out[d.Name] // a layer the workload bypasses reports 0
		if m, ok := res.Whole[d.Name]; ok {
			v = m.Value
		}
		res.PerLayer[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}
