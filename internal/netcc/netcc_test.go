package netcc

import (
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
)

func TestPathValidation(t *testing.T) {
	bad := []PathConfig{
		{CapacityMbps: 0, BaseRTT: 1, BufferBDPs: 1},
		{CapacityMbps: 1, BaseRTT: 0, BufferBDPs: 1},
		{CapacityMbps: 1, BaseRTT: 1, BufferBDPs: 0},
	}
	for i, cfg := range bad {
		if _, err := NewPath(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestPathQueueingAndLoss(t *testing.T) {
	p, err := NewPath(DefaultPathConfig()) // 100 Mbps, 20ms, 1 BDP = 2 Mb buffer
	if err != nil {
		t.Fatal(err)
	}
	// Under capacity: no queue, base RTT, no loss.
	s := p.Step(100*kernel.Millisecond, 50)
	if s.LossRate != 0 || s.RTT != 20*kernel.Millisecond || p.queueMb != 0 {
		t.Errorf("undersubscribed: %+v queue=%v", s, p.queueMb)
	}
	// Over capacity: queue builds, RTT grows.
	s = p.Step(100*kernel.Millisecond, 110)
	if p.queueMb <= 0 {
		t.Error("queue did not build")
	}
	if s.RTT <= 20*kernel.Millisecond {
		t.Errorf("RTT did not grow: %v", s.RTT)
	}
	// Sustained overload fills the buffer and drops.
	var lost bool
	for i := 0; i < 50; i++ {
		if p.Step(100*kernel.Millisecond, 200).LossRate > 0 {
			lost = true
		}
	}
	if !lost {
		t.Error("no loss under sustained overload")
	}
	// Queue is capped at the buffer.
	if p.queueMb > 2.0001 {
		t.Errorf("queue exceeded buffer: %v", p.queueMb)
	}
	// Throughput is capped at capacity.
	if s := p.Step(100*kernel.Millisecond, 500); s.ThroughputMbps > 100 {
		t.Errorf("throughput above capacity: %v", s.ThroughputMbps)
	}
}

func TestAIMDDynamics(t *testing.T) {
	c := NewAIMD()
	m := Measurement{RateMbps: 50, LossRate: 0}
	if got := c.Decide(m); got != 52 {
		t.Errorf("additive increase: %v", got)
	}
	m.LossRate = 0.1
	if got := c.Decide(m); got != 35 {
		t.Errorf("multiplicative decrease: %v", got)
	}
}

func TestAIMDIgnoresRTTNoise(t *testing.T) {
	c := NewAIMD()
	a := c.Decide(Measurement{RateMbps: 50, RTT: 20 * kernel.Millisecond, RTTGradient: 0})
	b := c.Decide(Measurement{RateMbps: 50, RTT: 80 * kernel.Millisecond, RTTGradient: 2.5})
	if a != b {
		t.Error("AIMD must not react to RTT")
	}
}

func TestTeacherReactsToGradient(t *testing.T) {
	tch := DelayGradientTeacher{}
	base := Measurement{RateMbps: 50, RTT: 21 * kernel.Millisecond,
		BaseRTT: 20 * kernel.Millisecond, CapacityHint: 100}
	calm := base
	calm.RTTGradient = 0
	rising := base
	rising.RTTGradient = 0.2
	if tch.Decide(rising) >= tch.Decide(calm) {
		t.Error("teacher must back off on rising RTT")
	}
	lossy := base
	lossy.LossRate = 0.05
	if tch.Decide(lossy) != 30 {
		t.Errorf("loss backoff = %v, want 30", tch.Decide(lossy))
	}
}

func clonedController(t *testing.T, seed int64) *Learned {
	t.Helper()
	c := NewLearned(seed)
	loss, err := c.Clone(DelayGradientTeacher{}, DefaultPathConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("cloning loss = %v, teacher not imitated", loss)
	}
	return c
}

func TestLearnedClonesTeacher(t *testing.T) {
	c := clonedController(t, 1)
	tch := DelayGradientTeacher{}
	cfg := DefaultPathConfig()
	// Points chosen inside the teacher's linear region (away from the
	// clamp plateaus, where the smooth network approximation differs).
	for _, grad := range []float64{-0.02, 0, 0.02, 0.06} {
		m := Measurement{
			RTT: 21 * kernel.Millisecond, RTTGradient: grad,
			RateMbps: 60, BaseRTT: cfg.BaseRTT, CapacityHint: cfg.CapacityMbps,
		}
		want := tch.Decide(m)
		got := c.Decide(m)
		if diff := got/want - 1; diff > 0.15 || diff < -0.15 {
			t.Errorf("grad=%v: learned %v vs teacher %v", grad, got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	k := kernel.New()
	cfg := DefaultRunConfig(1)
	cfg.Duration = 0
	if _, err := Run(k, nil, NewAIMD(), nil, cfg); err == nil {
		t.Error("zero duration should error")
	}
	cfg = DefaultRunConfig(1)
	cfg.InitialRateMbps = 0
	if _, err := Run(k, nil, NewAIMD(), nil, cfg); err == nil {
		t.Error("zero initial rate should error")
	}
}

func TestAIMDAchievesUtilization(t *testing.T) {
	k := kernel.New()
	m, err := Run(k, nil, NewAIMD(), nil, DefaultRunConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization < 0.7 {
		t.Errorf("AIMD utilization = %v, want >= 0.7", m.Utilization)
	}
	if m.P95RTT < 20*kernel.Millisecond {
		t.Errorf("metrics = %+v", m)
	}
}

func TestLearnedCleanVsNoisyJitter(t *testing.T) {
	c := clonedController(t, 3)
	clean := DefaultRunConfig(4)
	k1 := kernel.New()
	mClean, err := Run(k1, nil, c, nil, clean)
	if err != nil {
		t.Fatal(err)
	}
	noisy := DefaultRunConfig(4)
	noisy.NoiseSigma = 0.3
	k2 := kernel.New()
	mNoisy, err := Run(k2, nil, c, nil, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if mNoisy.RateCoV <= mClean.RateCoV {
		t.Errorf("noise should raise learned jitter: clean %v, noisy %v",
			mClean.RateCoV, mNoisy.RateCoV)
	}
	// AIMD under the same noise stays comparatively smooth.
	k3 := kernel.New()
	mAIMD, err := Run(k3, nil, NewAIMD(), nil, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if mNoisy.RateCoV <= mAIMD.RateCoV {
		t.Errorf("learned jitter %v should exceed AIMD jitter %v under noise",
			mNoisy.RateCoV, mAIMD.RateCoV)
	}
}

func TestRunPublishesAndFallsBack(t *testing.T) {
	c := clonedController(t, 5)
	k := kernel.New()
	st := featurestore.New()
	cfg := DefaultRunConfig(6)
	cfg.NoiseSigma = 0.3
	// A kernel timer disables the learned controller mid-run, as a
	// guardrail SAVE action would.
	k.Every(0, 100*kernel.Millisecond, 0, func(now kernel.Time) {
		if now >= 15*kernel.Second {
			st.Save(KeyCCEnabled, 0)
		}
	})
	m, err := Run(k, st, c, NewAIMD(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Load(KeyRateCoV) == 0 && m.RateCoV != 0 {
		t.Error("rate CoV not published")
	}
	if st.Load(KeyThroughput) == 0 {
		t.Error("throughput not published")
	}
	// The final window is pure AIMD: its jitter must be below the
	// learned controller's overall noisy jitter.
	k2 := kernel.New()
	mNoFallback, err := Run(k2, nil, clonedController(t, 5), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.RateCoV >= mNoFallback.RateCoV {
		t.Errorf("fallback did not calm the flow: with %v, without %v",
			m.RateCoV, mNoFallback.RateCoV)
	}
}

func TestControllerNames(t *testing.T) {
	if NewAIMD().Name() != "aimd" || NewLearned(1).Name() != "learned" ||
		(DelayGradientTeacher{}).Name() != "delay-gradient" {
		t.Error("controller names wrong")
	}
}
