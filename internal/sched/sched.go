// Package sched simulates a single-CPU scheduler with pluggable
// pickers: a CFS-like fair baseline and a learned shortest-job-first
// picker that predicts remaining work with a small neural network.
// Learned SJF minimizes mean response time but starves long jobs under
// sustained load — the liveness failure the paper's P6 property ("no
// ready task should be starved for more than 100ms") detects and
// corrects.
package sched

import (
	"fmt"
	"math"

	"guardrails/internal/kernel"
	"guardrails/internal/nn"
)

// Job is one schedulable unit of work.
type Job struct {
	// ID is unique per simulation.
	ID int
	// Arrival is when the job became ready.
	Arrival kernel.Time
	// Size is the job's total CPU demand (ground truth).
	Size kernel.Time
	// SizeHint is an observable, noisy correlate of Size (e.g. request
	// type), the learned picker's main feature.
	SizeHint float64
	// Remaining is the unserved CPU demand.
	Remaining kernel.Time
	// CPUUsed is the service received so far.
	CPUUsed kernel.Time
	// LastServed is the later of arrival and the end of the job's most
	// recent quantum; now - LastServed is its current ready wait.
	LastServed kernel.Time
	// Completed is the completion time (0 while in the system).
	Completed kernel.Time
}

// Wait returns the job's current ready-queue wait at time now.
func (j *Job) Wait(now kernel.Time) kernel.Time { return now - j.LastServed }

// Picker selects the next job to run from the ready queue.
type Picker interface {
	// Name identifies the picker.
	Name() string
	// Pick returns the index into ready of the job to run next. ready
	// is non-empty.
	Pick(now kernel.Time, ready []*Job) int
}

// CFS approximates Linux CFS: each job carries a virtual runtime and the
// picker runs the job with the least vruntime. As in the real scheduler,
// a newly arrived job's vruntime starts at the queue's current minimum
// (not at zero) so fresh arrivals cannot perpetually preempt old jobs.
type CFS struct {
	offset map[int]kernel.Time
}

// NewCFS returns a fair picker.
func NewCFS() *CFS { return &CFS{offset: make(map[int]kernel.Time)} }

// Name identifies the picker.
func (p *CFS) Name() string { return "cfs" }

func (p *CFS) vruntime(j *Job) kernel.Time { return j.CPUUsed + p.offset[j.ID] }

// Pick implements Picker.
func (p *CFS) Pick(_ kernel.Time, ready []*Job) int {
	// Assign entry offsets to first-seen jobs: min vruntime of known
	// ready jobs.
	var minVr kernel.Time
	seenAny := false
	for _, j := range ready {
		if _, ok := p.offset[j.ID]; !ok {
			continue
		}
		if vr := p.vruntime(j); !seenAny || vr < minVr {
			minVr, seenAny = vr, true
		}
	}
	for _, j := range ready {
		if _, ok := p.offset[j.ID]; !ok {
			p.offset[j.ID] = minVr - j.CPUUsed
		}
	}
	best := 0
	for i := 1; i < len(ready); i++ {
		a, b := ready[i], ready[best]
		av, bv := p.vruntime(a), p.vruntime(b)
		if av < bv || (av == bv && a.Arrival < b.Arrival) {
			best = i
		}
	}
	return best
}

// LearnedSJF predicts each ready job's remaining work with an MLP and
// runs the predicted-shortest one. It is the package's learned policy:
// excellent mean response time, no liveness guarantee.
type LearnedSJF struct {
	net *nn.Network
}

// NewLearnedSJF returns an untrained learned picker.
func NewLearnedSJF(seed int64) *LearnedSJF {
	return &LearnedSJF{
		net: nn.New(nn.Config{
			Layers: []int{2, 8, 1},
			Hidden: nn.ReLU,
			Output: nn.Linear,
			Loss:   nn.MSE,
			Seed:   seed,
		}),
	}
}

// Name identifies the picker.
func (p *LearnedSJF) Name() string { return "learned-sjf" }

// pickFeatures is the decision-time input: the size hint and the CPU
// already received (the predictor learns that remaining work falls as a
// job accumulates service).
func pickFeatures(j *Job) []float64 {
	return []float64{
		j.SizeHint,
		math.Log2(float64(j.CPUUsed)/float64(kernel.Millisecond) + 1),
	}
}

// PredictRemaining returns the model's estimate of the job's remaining
// work as log2(ms + 1).
func (p *LearnedSJF) PredictRemaining(j *Job) float64 {
	return p.net.Forward(pickFeatures(j))[0]
}

// Pick implements Picker.
func (p *LearnedSJF) Pick(_ kernel.Time, ready []*Job) int {
	best := 0
	bestScore := p.PredictRemaining(ready[0])
	for i := 1; i < len(ready); i++ {
		if s := p.PredictRemaining(ready[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Train fits the remaining-work predictor on completed jobs. For each
// job it synthesizes decision-time snapshots at several progress points
// f (CPUUsed = f·Size), each labelled with the true remaining work —
// the same distribution the picker queries at run time.
func (p *LearnedSJF) Train(jobs []*Job) (float64, error) {
	if len(jobs) == 0 {
		return 0, fmt.Errorf("sched: no training jobs")
	}
	fractions := []float64{0, 0.25, 0.5, 0.75}
	inputs := make([][]float64, 0, len(jobs)*len(fractions))
	targets := make([][]float64, 0, len(jobs)*len(fractions))
	for _, j := range jobs {
		sizeMS := float64(j.Size) / float64(kernel.Millisecond)
		for _, f := range fractions {
			inputs = append(inputs, []float64{
				j.SizeHint,
				math.Log2(sizeMS*f + 1),
			})
			targets = append(targets, []float64{math.Log2(sizeMS*(1-f) + 1)})
		}
	}
	return p.net.Train(inputs, targets, nn.TrainOpts{
		LearningRate: 0.05, Momentum: 0.9, BatchSize: 64, Epochs: 60, ShuffleSeed: 9,
	})
}
