package sched

import (
	"fmt"
	"math"
	"sort"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/stats"
	"guardrails/internal/trace"
)

// Feature-store keys and hook sites the simulator publishes.
const (
	// KeyMaxWaitMS is the longest current ready-queue wait in
	// milliseconds — the P6 starvation signal.
	KeyMaxWaitMS = "sched_max_wait_ms"
	// KeyReadyLen is the current ready-queue length.
	KeyReadyLen = "sched_ready_len"
	// HookDispatch fires on each dispatch with the picked job's current
	// wait in milliseconds.
	HookDispatch = "sched_pick"
)

// SimConfig parameterizes a scheduler simulation.
type SimConfig struct {
	// Quantum is the preemption interval.
	Quantum kernel.Time
	// ArrivalRate is jobs per simulated second.
	ArrivalRate float64
	// MeanSizeMS is the mean job size in milliseconds; sizes are
	// Pareto(alpha=1.5) with this mean, a standard heavy-tailed model.
	MeanSizeMS float64
	// HintNoise is the multiplicative lognormal noise sigma on the size
	// hint (0 = oracle hints).
	HintNoise float64
	// Seed drives the arrival and size draws.
	Seed int64
}

// DefaultSimConfig returns a moderately loaded configuration (~70%
// utilization).
func DefaultSimConfig(seed int64) SimConfig {
	return SimConfig{
		Quantum:     kernel.Millisecond,
		ArrivalRate: 140,
		MeanSizeMS:  5,
		HintNoise:   0.3,
		Seed:        seed,
	}
}

// Metrics summarize one simulation run.
type Metrics struct {
	Completed     int
	MeanResponse  kernel.Time // completion - arrival, mean over completed
	P99Response   kernel.Time
	MaxReadyWait  kernel.Time // worst instantaneous wait observed
	StarvedEvents int         // dispatches where some ready job waited > 100ms
}

// Sim is the scheduler simulation, driven by the shared simulated
// kernel so guardrail monitors interleave with it.
type Sim struct {
	k      *kernel.Kernel
	store  *featurestore.Store
	cfg    SimConfig
	picker func() Picker

	ready     []*Job
	running   *Job
	completed []*Job

	maxWaitID  featurestore.ID
	readyLenID featurestore.ID

	maxObservedWait kernel.Time
	starvedEvents   int
}

// NewSim builds a simulation. pickerProvider is consulted on every
// dispatch, so a guardrail REPLACE that swaps the registry's current
// picker takes effect immediately.
func NewSim(k *kernel.Kernel, store *featurestore.Store, cfg SimConfig, pickerProvider func() Picker) (*Sim, error) {
	if cfg.Quantum <= 0 {
		return nil, fmt.Errorf("sched: quantum must be positive")
	}
	if cfg.ArrivalRate <= 0 || cfg.MeanSizeMS <= 0 {
		return nil, fmt.Errorf("sched: arrival rate and size must be positive")
	}
	if pickerProvider == nil {
		return nil, fmt.Errorf("sched: nil picker provider")
	}
	return &Sim{
		k: k, store: store, cfg: cfg, picker: pickerProvider,
		maxWaitID:  store.Intern(KeyMaxWaitMS),
		readyLenID: store.Intern(KeyReadyLen),
	}, nil
}

// GenerateJobs pre-draws n jobs with Poisson arrivals and Pareto sizes.
func GenerateJobs(cfg SimConfig, n int) []*Job {
	rng := trace.NewRand(trace.Split(cfg.Seed, "sched-jobs"))
	arrivals := trace.NewPoisson(trace.Split(cfg.Seed, "sched-arrivals"), cfg.ArrivalRate, 0)
	jobs := make([]*Job, n)
	// Pareto(1.5) with mean m has xmin = m/3 (mean = alpha*xmin/(alpha-1)).
	xmin := cfg.MeanSizeMS / 3
	for i := range jobs {
		at := arrivals.Next()
		sizeMS := trace.Pareto(rng, xmin, 1.5)
		if sizeMS > 1000 {
			sizeMS = 1000 // cap the tail so runs terminate promptly
		}
		hint := math.Log2(sizeMS + 1)
		if cfg.HintNoise > 0 {
			hint *= trace.LogNormal(rng, 0, cfg.HintNoise)
		}
		jobs[i] = &Job{
			ID:         i,
			Arrival:    at,
			Size:       kernel.Time(sizeMS * float64(kernel.Millisecond)),
			SizeHint:   hint,
			Remaining:  kernel.Time(sizeMS * float64(kernel.Millisecond)),
			LastServed: at,
		}
	}
	return jobs
}

// Start schedules job admissions on the kernel. Call k.Run (or RunUntil)
// afterwards to execute the simulation.
func (s *Sim) Start(jobs []*Job) {
	for _, j := range jobs {
		j := j
		s.k.At(j.Arrival, func() { s.admit(j) })
	}
}

func (s *Sim) admit(j *Job) {
	s.ready = append(s.ready, j)
	s.publish()
	if s.running == nil {
		s.dispatch()
	}
}

func (s *Sim) dispatch() {
	if len(s.ready) == 0 {
		s.running = nil
		return
	}
	now := s.k.Now()

	// Starvation accounting across the whole ready queue.
	var worst kernel.Time
	for _, j := range s.ready {
		if w := j.Wait(now); w > worst {
			worst = w
		}
	}
	if worst > s.maxObservedWait {
		s.maxObservedWait = worst
	}
	if worst > 100*kernel.Millisecond {
		s.starvedEvents++
	}

	idx := s.picker().Pick(now, s.ready)
	j := s.ready[idx]
	s.ready = append(s.ready[:idx], s.ready[idx+1:]...)
	s.running = j
	s.k.Fire(HookDispatch, float64(j.Wait(now))/float64(kernel.Millisecond))
	s.publish()

	run := s.cfg.Quantum
	if j.Remaining < run {
		run = j.Remaining
	}
	s.k.After(run, func() { s.quantumEnd(j, run) })
}

func (s *Sim) quantumEnd(j *Job, ran kernel.Time) {
	now := s.k.Now()
	j.CPUUsed += ran
	j.Remaining -= ran
	j.LastServed = now
	if j.Remaining <= 0 {
		j.Completed = now
		s.completed = append(s.completed, j)
	} else {
		s.ready = append(s.ready, j)
	}
	s.dispatch()
}

// publish refreshes the feature-store signals.
func (s *Sim) publish() {
	now := s.k.Now()
	var worst kernel.Time
	for _, j := range s.ready {
		if w := j.Wait(now); w > worst {
			worst = w
		}
	}
	s.store.SaveID(s.maxWaitID, float64(worst)/float64(kernel.Millisecond))
	s.store.SaveID(s.readyLenID, float64(len(s.ready)))
}

// Completed returns the finished jobs.
func (s *Sim) Completed() []*Job { return s.completed }

// Metrics computes summary metrics over completed jobs.
func (s *Sim) Metrics() Metrics {
	m := Metrics{
		Completed:     len(s.completed),
		MaxReadyWait:  s.maxObservedWait,
		StarvedEvents: s.starvedEvents,
	}
	if len(s.completed) == 0 {
		return m
	}
	responses := make([]float64, len(s.completed))
	var sumResp float64
	for i, j := range s.completed {
		r := j.Completed - j.Arrival
		responses[i] = float64(r)
		sumResp += float64(r)
	}
	sort.Float64s(responses)
	m.MeanResponse = kernel.Time(sumResp / float64(len(responses)))
	m.P99Response = kernel.Time(stats.Quantile(responses, 0.99))
	return m
}
