package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"time"

	"guardrails/benchmark/gen"
	"guardrails/benchmark/oracle"
	"guardrails/benchmark/span"
	"guardrails/internal/experiments"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/storage"
	"guardrails/internal/trace"
)

// fig2Golden is the committed BENCH_fig2.json, the Figure-2 result at
// seed 1 and full size: the oracle of fig2_stack at that seed. The copy
// lives here because the benchmark reads only its own directory;
// TestFig2GoldenMatchesCommittedSnapshot keeps it equal to the
// repository's file.
//
//go:embed testdata/fig2_seed1.json
var fig2Golden []byte

// fig2Config returns the Figure-2 experiment at a share of its simulated
// length (full size: 20 s calm, then 40 s shifted).
func fig2Config(seed int64, scale float64) experiments.Fig2Config {
	cfg := experiments.DefaultFig2Config(seed)
	cfg.CollectLatencies = true
	if scale < 1 {
		cfg.CalmSeconds = max(int(float64(cfg.CalmSeconds)*scale), 1)
		cfg.ShiftSeconds = max(int(float64(cfg.ShiftSeconds)*scale), 2)
	}
	return cfg
}

// collectFig2Samples repeats the first half of the Figure-2 training
// recipe through the exported linnos and storage calls: build scratch
// devices and the calm workload, and collect 40 000 labelled samples.
// RunFig2 does the same internally (then fits the classifier) before it
// simulates anything, and cannot be split from outside; this is the part
// of its preparation the benchmark can measure as fig2_stack's set-up.
// The samples also feed the nn.infer_ns replay.
func collectFig2Samples(seed int64) ([]linnos.Sample, error) {
	mk := func(name string, s int64) (*storage.Device, error) {
		cfg := storage.DefaultDeviceConfig(name, s)
		cfg.BackgroundGCRate = 0.5
		cfg.GCDuration = 16 * kernel.Millisecond
		cfg.ChipSalt = uint64(trace.Split(s, "layout/"+name))
		return storage.NewDevice(cfg)
	}
	primary, err := mk("train-primary", trace.Split(seed, "train0"))
	if err != nil {
		return nil, err
	}
	replica, err := mk("train-replica", trace.Split(seed, "train1"))
	if err != nil {
		return nil, err
	}
	arr, err := storage.NewArray(primary, replica)
	if err != nil {
		return nil, err
	}
	keys := trace.NewZipfKeys(trace.Split(seed, "train-keys"), 1<<16, 1.2, true)
	wl := linnos.NewMixedWorkload(trace.Split(seed, "train-wl"), 20000, 0.05, keys)
	wl.SetWriteKeys(trace.NewUniformKeys(trace.Split(seed, "train-wkeys"), 1<<16))
	return linnos.CollectSamples(arr, wl, 40000, kernel.Millisecond), nil
}

// fig2Memo keeps the first round's snapshot of a run: every later round
// is a rerun and must be byte-identical.
type fig2Memo struct{ first []byte }

// fig2Instance is one round of fig2_stack: one RunFig2, one batch.
type fig2Instance struct {
	cfg      experiments.Fig2Config
	fullSize bool
	memo     *fig2Memo
	res      *experiments.Fig2Result
	err      error
}

func (f *fig2Instance) batches() int { return 1 }

func (f *fig2Instance) run(rec *batchTimes, tr *span.Recorder) int64 {
	start := time.Now()
	f.res, f.err = experiments.RunFig2(f.cfg)
	end := time.Now()
	rec.add(end.Sub(start))
	if tr != nil {
		tr.Add("experiments.RunFig2", "linnos", start, end)
	}
	if f.err != nil {
		return 1
	}
	return int64(f.res.GuardedRead.Count + f.res.UnguardedRead.Count)
}

func (f *fig2Instance) verify() oracle.Verdict {
	var v oracle.Verdict
	if f.err != nil {
		v.Check("RunFig2: "+f.err.Error(), 1, 0)
		return v
	}
	r := f.res
	var snapshot bytes.Buffer
	if err := experiments.NewBenchFig2(f.cfg, r).WriteJSON(&snapshot); err != nil {
		v.Check("snapshot: "+err.Error(), 1, 0)
		return v
	}
	// Seed 1 at full size must reproduce the committed snapshot exactly.
	if f.cfg.Seed == 1 && f.fullSize && !bytes.Equal(snapshot.Bytes(), fig2Golden) {
		v.Check("snapshot differs from BENCH_fig2.json", 1, 0)
	}
	// Any seed: a rerun is byte-identical...
	if f.memo.first == nil {
		f.memo.first = snapshot.Bytes()
	} else if !bytes.Equal(f.memo.first, snapshot.Bytes()) {
		v.Check("rerun snapshot differs from the first round's", 1, 0)
	}
	// ...and the two stacks, built from identical seeds, are consistent
	// with each other: the same reads, the same latency curve until the
	// guardrail first acts, one evaluation per simulated second, and an
	// action on every violation.
	v.Check("guarded vs unguarded read count", uint64(r.GuardedRead.Count), uint64(r.UnguardedRead.Count))
	if r.GuardedRead.Count == 0 {
		v.Check("reads simulated", 0, 1)
	}
	st := r.GuardedMonitorStats
	v.Check("guardrail evaluations", st.Evals, uint64(f.cfg.CalmSeconds+f.cfg.ShiftSeconds+1))
	v.Check("actions per violation", st.ActionsFired, st.Violations)
	v.Check("monitor faults", st.Traps, 0)
	// The guardrail acts on a whole-second timer tick; GuardrailFiredAt is
	// when the sampling loop next looked, up to one sample later.
	actedAt := float64(r.GuardrailFiredAt / kernel.Second)
	for _, p := range r.Series {
		if (r.GuardrailFiredAt == 0 || p.TimeS < actedAt) && p.GuardedUS != p.UnguardedUS {
			v.Check(fmt.Sprintf("stacks diverge at %.2fs before the guardrail acted", p.TimeS), 1, 0)
			break
		}
	}
	return v
}

var fig2Stack = fig2Workload()

func fig2Workload() *workload {
	w := &workload{
		name:  "fig2_stack",
		why:   "the paper's Figure-2 experiment, both stacks: the guardrail fires once a simulated second, so host time is the event heap, storage, nn and linnos; fire-path and checker changes predict no change here",
		procs: 1,
	}
	memos := perRun[fig2Memo]{}
	w.setup = func(seed int64, scale float64) (instance, error) {
		if _, err := collectFig2Samples(seed); err != nil {
			return nil, err
		}
		return &fig2Instance{cfg: fig2Config(seed, scale), fullSize: scale >= 1, memo: memos.get(seed, scale)}, nil
	}
	w.layers = fig2Layers
	return w
}

// fig2Layers is the layer replay of fig2_stack: classifier inference in
// isolation over the training recipe's own feature vectors, the kernel
// event heap, and host time per simulated read from one traced run.
func fig2Layers(c *layerCtx) error {
	samples, err := collectFig2Samples(c.seed)
	if err != nil {
		return err
	}
	model := linnos.NewClassifier(trace.Split(c.seed, "model"))
	if _, err := model.Train(samples); err != nil {
		return err
	}
	batches := len(samples) / gen.FiresPerBatch
	slow := 0
	c.set("nn.infer_ns", median(c.batchLoop("Classifier.PredictSlow", "nn", batches, gen.FiresPerBatch, nil, func(b int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			if model.PredictSlow(samples[b*gen.FiresPerBatch+f].Features) {
				slow++
			}
		}
	})))
	measureEvents(c, batches)

	inst := &fig2Instance{cfg: fig2Config(c.seed, c.full), memo: &fig2Memo{}}
	rec := &batchTimes{}
	reads := inst.run(rec, c.tr)
	if inst.err != nil {
		return inst.err
	}
	c.tracedNS = float64(rec.ns[0]) / float64(reads)
	c.set("linnos.io_host_ns", c.tracedNS)
	st := inst.res.GuardedMonitorStats
	c.set("monitor.evals", float64(st.Evals))
	c.set("monitor.violations", float64(st.Violations))
	c.set("monitor.actions_fired", float64(st.ActionsFired))
	c.set("monitor.faults", float64(st.Traps))
	c.set("kernel.barrier_share", 0) // both stacks are single loops
	return nil
}
