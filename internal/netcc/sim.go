package netcc

import (
	"fmt"
	"math"
	"sort"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/stats"
	"guardrails/internal/trace"
)

// Feature-store keys the runner publishes.
const (
	// KeyRateCoV is the windowed coefficient of variation of the
	// controller's emitted rates — the P2 decision-robustness signal.
	KeyRateCoV = "cc_rate_cov"
	// KeyThroughput is the smoothed delivered throughput in Mbps.
	KeyThroughput = "cc_throughput_mbps"
	// KeyCCEnabled gates the learned controller: the guardrail's
	// REPLACE-equivalent knob for this subsystem.
	KeyCCEnabled = "cc_ml_enabled"
)

// RunConfig parameterizes a congestion-control run.
type RunConfig struct {
	Path PathConfig
	// Duration is total simulated time.
	Duration kernel.Time
	// DecisionInterval is the controller's cadence.
	DecisionInterval kernel.Time
	// NoiseSigma is the stddev of multiplicative lognormal noise on RTT
	// measurements (0 = clean).
	NoiseSigma float64
	// InitialRateMbps seeds the flow.
	InitialRateMbps float64
	// Seed drives the noise draws.
	Seed int64
	// CoVWindow is the rate-sample window for KeyRateCoV.
	CoVWindow int
}

// DefaultRunConfig returns a 30-second run with 50 ms decisions.
func DefaultRunConfig(seed int64) RunConfig {
	return RunConfig{
		Path:             DefaultPathConfig(),
		Duration:         30 * kernel.Second,
		DecisionInterval: 50 * kernel.Millisecond,
		InitialRateMbps:  10,
		Seed:             seed,
		CoVWindow:        64,
	}
}

// Metrics summarizes a run.
type Metrics struct {
	// MeanThroughputMbps is the time-average delivered rate.
	MeanThroughputMbps float64
	// Utilization is MeanThroughput / capacity.
	Utilization float64
	// RateCoV is the coefficient of variation of the decision outputs
	// over the whole run (jitter — P2's failure signal).
	RateCoV float64
	// P95RTT summarizes delay.
	P95RTT kernel.Time
	// LossFraction is total lost / total offered.
	LossFraction float64
}

// Run simulates one flow under ctrl. When store is non-nil the runner
// publishes KeyRateCoV and KeyThroughput after every decision and, if
// fallback is non-nil, consults KeyCCEnabled: when a guardrail sets it
// to 0 the fallback controller takes over (the REPLACE path for this
// substrate). The kernel drives TIMER-based monitors between decisions.
func Run(k *kernel.Kernel, store *featurestore.Store, ctrl, fallback Controller, cfg RunConfig) (Metrics, error) {
	if cfg.Duration <= 0 || cfg.DecisionInterval <= 0 {
		return Metrics{}, fmt.Errorf("netcc: durations must be positive")
	}
	if cfg.InitialRateMbps <= 0 {
		return Metrics{}, fmt.Errorf("netcc: initial rate must be positive")
	}
	if cfg.CoVWindow <= 0 {
		cfg.CoVWindow = 64
	}
	path, err := NewPath(cfg.Path)
	if err != nil {
		return Metrics{}, err
	}
	rng := trace.NewRand(trace.Split(cfg.Seed, "cc-noise"))
	ctrl.Reset()
	if fallback != nil {
		fallback.Reset()
	}

	var (
		rate      = cfg.InitialRateMbps
		prevRTT   = cfg.Path.BaseRTT
		rateWin   = stats.NewWindow(cfg.CoVWindow)
		rtts      []float64
		m         Metrics
		thrWel    stats.Welford
		lossAccum float64
		sentAccum float64
	)
	var covID, thrID featurestore.ID
	enabled := func() bool { return true }
	if store != nil {
		covID = store.Intern(KeyRateCoV)
		thrID = store.Intern(KeyThroughput)
		enID := store.Intern(KeyCCEnabled)
		store.SaveID(enID, 1)
		if fallback != nil {
			enabled = func() bool { return store.LoadID(enID) != 0 }
		}
	}

	steps := int(cfg.Duration / cfg.DecisionInterval)
	start := k.Now()
	for i := 0; i < steps; i++ {
		// Advance the fluid model one decision interval at the current rate.
		sample := path.Step(cfg.DecisionInterval, rate)
		thrWel.Add(sample.ThroughputMbps)
		sentAccum += rate
		lossAccum += sample.LossRate * rate
		rtts = append(rtts, float64(sample.RTT))

		// Noisy measurement.
		measuredRTT := sample.RTT
		if cfg.NoiseSigma > 0 {
			measuredRTT = kernel.Time(float64(sample.RTT) * trace.LogNormal(rng, 0, cfg.NoiseSigma))
		}
		grad := float64(measuredRTT-prevRTT) / float64(cfg.Path.BaseRTT)
		prevRTT = measuredRTT

		meas := Measurement{
			RTT:          measuredRTT,
			RTTGradient:  grad,
			LossRate:     sample.LossRate,
			RateMbps:     rate,
			BaseRTT:      cfg.Path.BaseRTT,
			CapacityHint: cfg.Path.CapacityMbps,
		}
		active := ctrl
		if !enabled() && fallback != nil {
			active = fallback
		}
		rate = active.Decide(meas)
		if rate < 0.1 {
			rate = 0.1
		}
		if rate > 4*cfg.Path.CapacityMbps {
			rate = 4 * cfg.Path.CapacityMbps
		}

		rateWin.Add(rate)
		if store != nil {
			store.SaveID(covID, windowCoV(rateWin))
			store.SaveID(thrID, thrWel.Mean())
		}
		// Let TIMER monitors between decisions fire.
		k.RunUntil(start + kernel.Time(i+1)*cfg.DecisionInterval)
	}

	m.MeanThroughputMbps = thrWel.Mean()
	m.Utilization = m.MeanThroughputMbps / cfg.Path.CapacityMbps
	m.RateCoV = runCoV(rtts, rateWin, &m)
	if sentAccum > 0 {
		m.LossFraction = lossAccum / sentAccum
	}
	return m, nil
}

// windowCoV computes the coefficient of variation over a window.
func windowCoV(w *stats.Window) float64 {
	if w.Len() < 2 || w.Mean() == 0 {
		return 0
	}
	var sq float64
	mean := w.Mean()
	for _, v := range w.Values() {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq/float64(w.Len()-1)) / mean
}

// runCoV fills RTT metrics and returns the final-window rate CoV.
func runCoV(rtts []float64, w *stats.Window, m *Metrics) float64 {
	if len(rtts) > 0 {
		sorted := append([]float64(nil), rtts...)
		sort.Float64s(sorted)
		m.P95RTT = kernel.Time(stats.Quantile(sorted, 0.95))
	}
	return windowCoV(w)
}
