package main

import (
	"time"

	"guardrails/benchmark/gen"
	"guardrails/benchmark/oracle"
	"guardrails/benchmark/span"
	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
)

// Full-size operation counts of the single-loop fire workloads, in
// batches of gen.FiresPerBatch fires. Sized so a round takes 0.35–0.45 s
// on the seed code (about 140 / 460 / 540 ns per fire): a 10 s run then
// has two dozen rounds to take its median over, which is what keeps the
// medians steady on a shared machine.
const (
	bareBatches     = 39063 // 2.5 M fires
	observedBatches = 11719 // 0.75 M fires
	wideBatches     = 11719 // 0.75 M fires
	wideViolShare   = 0.2
)

// The production attachment sizes fire_observed uses.
const (
	flightCap    = 4096
	provCap      = 4096
	healthyEvery = 64
)

// sampleEvery is the 1-in-N batch sampling of the traced pass.
const sampleEvery = 64

// scaled returns n scaled down, never below one batch.
func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 1) }

// fireSystem is one kernel with the workload's guardrails loaded.
type fireSystem struct {
	in   *gen.FireInputs
	k    *kernel.Kernel
	st   *featurestore.Store
	rt   *monitor.Runtime
	mons []*monitor.Monitor // site guardrails, then the watcher
	ids  []featurestore.ID  // in.Keys, interned
	sink *telemetry.Sink
	prov *provenance.Recorder
}

// buildFire compiles and loads the inputs' guardrails on a fresh kernel,
// attaching the telemetry and provenance planes when asked.
func buildFire(in *gen.FireInputs, telem, prov bool) (*fireSystem, error) {
	s := &fireSystem{in: in, k: kernel.New(), st: featurestore.New()}
	s.rt = monitor.New(s.k, s.st)
	if telem {
		s.sink = telemetry.New(func() telemetry.Time { return int64(s.k.Now()) }, flightCap)
		s.k.SetTelemetry(s.sink)
		s.rt.SetTelemetry(s.sink)
		s.st.SetTelemetry(s.sink)
	}
	if prov {
		s.prov = provenance.New(provCap, healthyEvery)
		s.rt.SetProvenance(s.prov)
	}
	cs, err := compile.Source(in.Source)
	if err != nil {
		return nil, err
	}
	dep, err := s.rt.LoadDeployment(cs, monitor.DeployConfig{})
	if err != nil {
		return nil, err
	}
	s.mons = dep.Monitors
	if in.Watcher != nil {
		ws, err := compile.Source(in.WatcherSource)
		if err != nil {
			return nil, err
		}
		m, err := s.rt.Load(ws[0], monitor.Options{DependencyTrigger: true})
		if err != nil {
			return nil, err
		}
		s.mons = append(s.mons, m)
	}
	for _, key := range in.Keys {
		s.ids = append(s.ids, s.st.Intern(key))
	}
	return s, nil
}

// playBatch is the subsystem side of one batch of every single-loop fire
// workload: write the features once, then fire the hook FiresPerBatch
// times, between one time.Now pair.
func (s *fireSystem) playBatch(b int) (t0, t1 time.Time) {
	in, k, st := s.in, s.k, s.st
	row := in.Row(b)
	t0 = time.Now()
	for i, id := range s.ids {
		st.SaveID(id, row[i])
	}
	for f := 0; f < in.FiresPerBatch; f++ {
		k.Fire(in.Site, float64(f))
	}
	return t0, time.Now()
}

// play runs the whole schedule, batch by batch.
func (s *fireSystem) play(rec *batchTimes, tr *span.Recorder) int64 {
	for b := 0; b < s.in.Batches; b++ {
		t0, t1 := s.playBatch(b)
		rec.add(t1.Sub(t0))
		if tr != nil && b%sampleEvery == 0 {
			tr.Add("batch", "driver", t0, t1)
		}
	}
	return s.in.Fires()
}

// observed reads the system's observable outcome in the oracle's form.
func (s *fireSystem) observed(want *oracle.FireOutcome) *oracle.FireOutcome {
	got := &oracle.FireOutcome{Counts: map[string]oracle.Counts{}, Cells: map[string]float64{}}
	for _, m := range s.mons {
		st := m.Stats()
		got.Counts[m.Name()] = oracle.Counts{Evals: st.Evals, Violations: st.Violations, ActionsFired: st.ActionsFired}
	}
	got.Reports = s.rt.Log.Total()
	if last := s.rt.Log.Recent(1); len(last) == 1 {
		got.LastReport = last[0].Values
	}
	for key := range want.Cells {
		got.Cells[key] = s.st.Load(key)
	}
	return got
}

// health adds the checks every fire workload shares: no monitor fault,
// no dead letter, no dispatch error — and, with the planes attached,
// that telemetry and provenance tell the same story as monitor.Stats.
func (s *fireSystem) health(v *oracle.Verdict) {
	var evals, violations, fired, faults, healthy uint64
	for _, m := range s.mons {
		st := m.Stats()
		evals += st.Evals
		violations += st.Violations
		fired += st.ActionsFired
		faults += st.Traps
		healthy += st.Evals - st.Violations
		v.Check(m.Name()+" faults", st.Traps, 0)
		v.Check(m.Name()+" dispatch errors", st.DispatchErrors, 0)
	}
	v.Check("dead letters", s.rt.DeadLetter.Total(), 0)
	v.Check("hook fires", s.k.FireCount(s.in.Site), uint64(s.in.Fires()))
	if s.sink != nil {
		c := &s.sink.Counters
		v.Check("telemetry hook fires", c.HookFires.Value(), uint64(s.in.Fires()))
		v.Check("telemetry evals", c.Evals.Value(), evals)
		v.Check("telemetry violations", c.Violations.Value(), violations)
		v.Check("telemetry actions fired", c.ActionsFired.Value(), fired)
		v.Check("telemetry faults", c.Faults.Value(), faults)
	}
	if s.prov != nil {
		// Violations and faults are always recorded, 1:1; healthy
		// evaluations 1 in healthyEvery per monitor, head-based.
		always := violations + faults
		sampled := s.prov.Total() - always
		want := healthy / healthyEvery
		slack := uint64(len(s.mons))
		if sampled+slack < want || sampled > want+slack {
			v.Check("provenance healthy samples", sampled, want)
		}
	}
}

// fireInstance is one round of fire_bare, fire_observed or fire_wide.
type fireInstance struct {
	sys  *fireSystem
	want *oracle.FireOutcome
}

func (f *fireInstance) batches() int { return f.sys.in.Batches }

func (f *fireInstance) run(rec *batchTimes, tr *span.Recorder) int64 { return f.sys.play(rec, tr) }

func (f *fireInstance) verify() oracle.Verdict {
	v := oracle.CompareFire(f.sys.observed(f.want), f.want)
	f.sys.health(&v)
	return v
}

// fireWorkload builds one of the three single-loop fire workloads.
func fireWorkload(name, why string, inputs func(seed int64, scale float64) *gen.FireInputs, telem, prov bool) *workload {
	expected := perRun[oracle.FireOutcome]{}
	w := &workload{name: name, why: why, procs: 1, opsPerBatch: gen.FiresPerBatch}
	w.setup = func(seed int64, scale float64) (instance, error) {
		in := inputs(seed, scale)
		sys, err := buildFire(in, telem, prov)
		if err != nil {
			return nil, err
		}
		want := expected.get(seed, scale)
		if want.Counts == nil {
			*want = *oracle.Fire(in)
		}
		return &fireInstance{sys: sys, want: want}, nil
	}
	w.layers = func(c *layerCtx) error { return fireLayers(c, inputs(c.seed, c.scale), telem, prov) }
	return w
}

var fireBare = fireWorkload("fire_bare",
	"one Listing-2-shaped guardrail, no telemetry or provenance: monitor bookkeeping and the kernel.Fire alloc dominate, vm.Run is a tenth",
	func(seed int64, scale float64) *gen.FireInputs {
		return gen.Bare(seed, "bare", scaled(bareBatches, scale))
	}, false, false)

var fireObserved = fireWorkload("fire_observed",
	"the fire_bare guardrail and inputs with the production telemetry sink and provenance recorder attached: the planes do two thirds of the work",
	func(seed int64, scale float64) *gen.FireInputs {
		// The same stream as fire_bare, so the two differ only in the
		// attachments.
		return gen.Bare(seed, "bare", scaled(observedBatches, scale))
	}, true, true)

var fireWide = fireWorkload("fire_wide",
	"a 146-instruction six-group guardrail with SAVE+REPORT actions, a fifth of batches violating and a dependency-triggered watcher: vm, featurestore and actions dominate",
	func(seed int64, scale float64) *gen.FireInputs {
		return gen.Wide(seed, scaled(wideBatches, scale), wideViolShare)
	}, false, false)
