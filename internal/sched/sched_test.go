package sched

import (
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
)

func runSim(t *testing.T, picker Picker, cfg SimConfig, n int) (*Sim, Metrics) {
	t.Helper()
	k := kernel.New()
	st := featurestore.New()
	s, err := NewSim(k, st, cfg, func() Picker { return picker })
	if err != nil {
		t.Fatal(err)
	}
	jobs := GenerateJobs(cfg, n)
	s.Start(jobs)
	k.Run()
	return s, s.Metrics()
}

func TestSimValidation(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	cfg := DefaultSimConfig(1)
	cfg.Quantum = 0
	if _, err := NewSim(k, st, cfg, func() Picker { return NewCFS() }); err == nil {
		t.Error("zero quantum should error")
	}
	cfg = DefaultSimConfig(1)
	cfg.ArrivalRate = 0
	if _, err := NewSim(k, st, cfg, func() Picker { return NewCFS() }); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := NewSim(k, st, DefaultSimConfig(1), nil); err == nil {
		t.Error("nil provider should error")
	}
}

func TestGenerateJobsShape(t *testing.T) {
	cfg := DefaultSimConfig(2)
	jobs := GenerateJobs(cfg, 1000)
	if len(jobs) != 1000 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	prev := kernel.Time(-1)
	var meanMS float64
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatal("arrivals not increasing")
		}
		prev = j.Arrival
		if j.Size <= 0 || j.Remaining != j.Size {
			t.Fatal("bad size initialization")
		}
		meanMS += float64(j.Size) / float64(kernel.Millisecond)
	}
	meanMS /= float64(len(jobs))
	// Pareto(1.5, mean 5ms) capped at 1s: mean near 5ms.
	if meanMS < 3 || meanMS > 9 {
		t.Errorf("mean size = %vms, want ~5ms", meanMS)
	}
	// Determinism.
	again := GenerateJobs(cfg, 1000)
	for i := range jobs {
		if jobs[i].Size != again[i].Size || jobs[i].Arrival != again[i].Arrival {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestAllJobsComplete(t *testing.T) {
	for _, p := range []Picker{NewCFS()} {
		sim, m := runSim(t, p, DefaultSimConfig(3), 500)
		if m.Completed != 500 {
			t.Errorf("%s completed %d/500", p.Name(), m.Completed)
		}
		if len(sim.ready) != 0 {
			t.Errorf("%s left jobs ready", p.Name())
		}
		if m.MeanResponse <= 0 {
			t.Errorf("%s metrics = %+v", p.Name(), m)
		}
	}
}

func TestCFSVruntimeSemantics(t *testing.T) {
	cfs := NewCFS()
	a := &Job{ID: 1, Arrival: 0}
	b := &Job{ID: 2, Arrival: 10}
	// Fresh jobs tie on vruntime; earliest arrival wins.
	if cfs.Pick(0, []*Job{a, b}) != 0 {
		t.Error("tie should go to earliest arrival")
	}
	// After a runs 2ms, b is behind and must be picked.
	a.CPUUsed = 2 * kernel.Millisecond
	if cfs.Pick(0, []*Job{a, b}) != 1 {
		t.Error("least-vruntime job not picked")
	}
	// A new arrival is normalized to the queue's min vruntime: it must
	// NOT win absolute priority over jobs that accumulated service.
	b.CPUUsed = 2 * kernel.Millisecond
	c := &Job{ID: 3, Arrival: 20}
	if got := cfs.Pick(0, []*Job{a, b, c}); got == 2 {
		t.Error("fresh arrival won absolute priority over served jobs")
	}
	// But once the old jobs run further, the newcomer gets its share.
	a.CPUUsed = 4 * kernel.Millisecond
	b.CPUUsed = 4 * kernel.Millisecond
	if cfs.Pick(0, []*Job{a, b, c}) != 2 {
		t.Error("normalized newcomer never scheduled")
	}
}

func trainedSJF(t *testing.T, seed int64) *LearnedSJF {
	t.Helper()
	cfg := DefaultSimConfig(seed)
	// Train on jobs completed under CFS.
	k := kernel.New()
	st := featurestore.New()
	s, err := NewSim(k, st, cfg, func() Picker { return NewCFS() })
	if err != nil {
		t.Fatal(err)
	}
	jobs := GenerateJobs(cfg, 2000)
	s.Start(jobs)
	k.Run()
	p := NewLearnedSJF(seed + 1)
	if _, err := p.Train(s.Completed()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLearnedSJFImprovesMeanResponse(t *testing.T) {
	p := trainedSJF(t, 10)
	cfg := DefaultSimConfig(11)
	cfg.ArrivalRate = 170 // heavier load exposes the SJF advantage
	_, sjf := runSim(t, p, cfg, 3000)
	_, fair := runSim(t, NewCFS(), cfg, 3000)
	if sjf.MeanResponse >= fair.MeanResponse {
		t.Errorf("learned SJF mean response %v should beat CFS %v",
			sjf.MeanResponse, fair.MeanResponse)
	}
}

func TestLearnedSJFStarvesLongJobs(t *testing.T) {
	p := trainedSJF(t, 20)
	cfg := DefaultSimConfig(21)
	cfg.ArrivalRate = 170
	_, sjf := runSim(t, p, cfg, 3000)
	_, fair := runSim(t, NewCFS(), cfg, 3000)
	if sjf.MaxReadyWait <= fair.MaxReadyWait {
		t.Errorf("learned SJF max wait %v should exceed CFS %v",
			sjf.MaxReadyWait, fair.MaxReadyWait)
	}
	if sjf.MaxReadyWait < 100*kernel.Millisecond {
		t.Errorf("learned SJF max wait %v should cross the 100ms starvation bound", sjf.MaxReadyWait)
	}
	if sjf.StarvedEvents == 0 {
		t.Error("no starvation events recorded under learned SJF")
	}
	if sjf.StarvedEvents <= fair.StarvedEvents {
		t.Errorf("SJF starvation events %d should exceed CFS %d",
			sjf.StarvedEvents, fair.StarvedEvents)
	}
}

func TestSimPublishesStoreSignals(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	cfg := DefaultSimConfig(30)
	s, err := NewSim(k, st, cfg, func() Picker { return NewCFS() })
	if err != nil {
		t.Fatal(err)
	}
	var dispatches int
	k.Attach(HookDispatch, func(*kernel.Kernel, string, []float64) { dispatches++ })
	s.Start(GenerateJobs(cfg, 200))
	k.Run()
	if dispatches == 0 {
		t.Error("dispatch hook never fired")
	}
	if _, ok := st.Lookup(KeyMaxWaitMS); !ok {
		t.Error("max wait key not published")
	}
	if _, ok := st.Lookup(KeyReadyLen); !ok {
		t.Error("ready length key not published")
	}
}

func TestPickerProviderSwapMidRun(t *testing.T) {
	// Start with learned SJF, then swap to CFS mid-run via the provider;
	// the swap must take effect (this is what a REPLACE action does).
	p := trainedSJF(t, 40)
	var current Picker = p
	k := kernel.New()
	st := featurestore.New()
	cfg := DefaultSimConfig(41)
	cfg.ArrivalRate = 170
	s, err := NewSim(k, st, cfg, func() Picker { return current })
	if err != nil {
		t.Fatal(err)
	}
	jobs := GenerateJobs(cfg, 3000)
	s.Start(jobs)
	swapped := false
	k.Every(0, 100*kernel.Millisecond, 0, func(now kernel.Time) {
		if now >= 5*kernel.Second && !swapped {
			current = NewCFS()
			swapped = true
		}
	})
	k.RunUntil(60 * kernel.Second)
	if !swapped {
		t.Fatal("swap never happened")
	}
	if s.Metrics().Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestPickerNames(t *testing.T) {
	if NewCFS().Name() != "cfs" || NewLearnedSJF(1).Name() != "learned-sjf" {
		t.Error("picker names wrong")
	}
}

func TestLearnedSJFTrainValidation(t *testing.T) {
	if _, err := NewLearnedSJF(1).Train(nil); err == nil {
		t.Error("empty training set should error")
	}
}
