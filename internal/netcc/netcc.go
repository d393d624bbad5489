// Package netcc simulates congestion control on a single bottleneck
// with a fluid queue model: an AIMD baseline (the loss-driven core of
// Cubic-style controllers) and a learned delay-gradient controller
// cloned from an aggressive teacher on clean measurements. Because the
// learned controller keys on the RTT gradient, injected measurement
// noise makes its output jitter wildly while AIMD, which reacts only to
// loss, stays smooth — the robustness contrast the paper's P2 property
// ("similar inputs yield similar outputs") monitors for congestion
// control.
package netcc

import (
	"fmt"

	"guardrails/internal/kernel"
	"guardrails/internal/nn"
	"guardrails/internal/stats"
)

// PathConfig describes the bottleneck.
type PathConfig struct {
	// CapacityMbps is the bottleneck bandwidth.
	CapacityMbps float64
	// BaseRTT is the propagation delay.
	BaseRTT kernel.Time
	// BufferBDPs is the bottleneck buffer in bandwidth-delay products.
	BufferBDPs float64
}

// DefaultPathConfig returns a 100 Mbps, 20 ms, 1-BDP-buffer path.
func DefaultPathConfig() PathConfig {
	return PathConfig{CapacityMbps: 100, BaseRTT: 20 * kernel.Millisecond, BufferBDPs: 1}
}

// Sample is the path's feedback for one simulation step.
type Sample struct {
	// RTT is the current round-trip time including queueing delay.
	RTT kernel.Time
	// LossRate is the fraction of offered load dropped this step.
	LossRate float64
	// ThroughputMbps is the delivered rate this step.
	ThroughputMbps float64
}

// Path is the fluid bottleneck model.
type Path struct {
	cfg      PathConfig
	queueMb  float64 // queued data in megabits
	bufferMb float64
}

// NewPath builds a path.
func NewPath(cfg PathConfig) (*Path, error) {
	if cfg.CapacityMbps <= 0 || cfg.BaseRTT <= 0 || cfg.BufferBDPs <= 0 {
		return nil, fmt.Errorf("netcc: path parameters must be positive")
	}
	bdpMb := cfg.CapacityMbps * float64(cfg.BaseRTT) / float64(kernel.Second)
	return &Path{cfg: cfg, bufferMb: bdpMb * cfg.BufferBDPs}, nil
}

// Step advances the fluid model by dt at the given send rate.
func (p *Path) Step(dt kernel.Time, sendRateMbps float64) Sample {
	if sendRateMbps < 0 {
		sendRateMbps = 0
	}
	dtSec := float64(dt) / float64(kernel.Second)
	arrived := sendRateMbps * dtSec
	drained := p.cfg.CapacityMbps * dtSec

	delivered := arrived
	p.queueMb += arrived - drained
	var lost float64
	if p.queueMb < 0 {
		p.queueMb = 0
	}
	if p.queueMb > p.bufferMb {
		lost = p.queueMb - p.bufferMb
		p.queueMb = p.bufferMb
	}
	if lost > delivered {
		lost = delivered
	}
	lossRate := 0.0
	if arrived > 0 {
		lossRate = lost / arrived
	}
	throughput := sendRateMbps
	if throughput > p.cfg.CapacityMbps {
		throughput = p.cfg.CapacityMbps
	}
	_ = delivered
	rtt := p.cfg.BaseRTT + kernel.Time(p.queueMb/p.cfg.CapacityMbps*float64(kernel.Second))
	return Sample{RTT: rtt, LossRate: lossRate, ThroughputMbps: throughput}
}

// Measurement is the controller's (possibly noisy) view of the path.
type Measurement struct {
	// RTT is the measured round-trip time.
	RTT kernel.Time
	// RTTGradient is (RTT - prevRTT) / baseRTT per decision interval.
	RTTGradient float64
	// LossRate is the measured loss fraction since the last decision.
	LossRate float64
	// RateMbps is the controller's current rate.
	RateMbps float64
	// BaseRTT is the known propagation delay.
	BaseRTT kernel.Time
	// CapacityHint is a rough capacity estimate available to
	// controllers (e.g. from interface speed).
	CapacityHint float64
}

// Controller adjusts the send rate each decision interval.
type Controller interface {
	// Name identifies the controller.
	Name() string
	// Decide returns the new send rate in Mbps.
	Decide(m Measurement) float64
	// Reset clears internal state for a fresh flow.
	Reset()
}

// AIMD is the loss-based baseline: additive increase each decision
// without loss, multiplicative decrease on loss. It ignores RTT
// measurements entirely, making it robust to RTT noise.
type AIMD struct {
	// IncreaseMbps is the per-decision additive step.
	IncreaseMbps float64
	// Beta is the multiplicative decrease factor on loss.
	Beta float64
}

// NewAIMD returns an AIMD controller with Cubic-like parameters.
func NewAIMD() *AIMD { return &AIMD{IncreaseMbps: 2, Beta: 0.7} }

// Name identifies the controller.
func (c *AIMD) Name() string { return "aimd" }

// Decide implements Controller.
func (c *AIMD) Decide(m Measurement) float64 {
	if m.LossRate > 0 {
		return m.RateMbps * c.Beta
	}
	return m.RateMbps + c.IncreaseMbps
}

// Reset implements Controller (AIMD is stateless).
func (c *AIMD) Reset() {}

// DelayGradientTeacher is the aggressive hand-written rule the learned
// controller clones: back off sharply on rising RTT, probe hard when the
// queue looks empty. High gain on the RTT gradient is what makes the
// cloned policy noise-sensitive.
type DelayGradientTeacher struct{}

// Name identifies the controller.
func (DelayGradientTeacher) Name() string { return "delay-gradient" }

// Decide implements Controller. The rule is a smooth, high-gain control
// law: probe upward when the queue is empty, back off proportionally to
// queueing delay and its gradient, and halve-ish on loss. The smoothness
// makes it easy to clone; the high gain on delay measurements is what a
// noisy-RTT environment turns into jitter.
func (DelayGradientTeacher) Decide(m Measurement) float64 {
	if m.LossRate > 0 {
		return m.RateMbps * 0.6
	}
	qdelay := stats.Clamp(float64(m.RTT)/float64(m.BaseRTT)-1, 0, 3)
	mult := 1.1 - 4*qdelay - 5*stats.Clamp(m.RTTGradient, -0.5, 0.5)
	return m.RateMbps * stats.Clamp(mult, 0.5, 1.2)
}

// Reset implements Controller.
func (DelayGradientTeacher) Reset() {}

// Learned is a neural controller cloned from DelayGradientTeacher. Its
// inputs include the RTT gradient; trained only on clean measurements,
// it inherits (and with the network's nonlinearity, amplifies) the
// teacher's gain, so noisy gradients translate into large rate swings.
type Learned struct {
	net *nn.Network
}

// NewLearned returns an untrained learned controller.
func NewLearned(seed int64) *Learned {
	return &Learned{
		net: nn.New(nn.Config{
			Layers: []int{4, 12, 1},
			Hidden: nn.Tanh,
			Output: nn.Linear,
			Loss:   nn.MSE,
			Seed:   seed,
		}),
	}
}

// Name identifies the controller.
func (c *Learned) Name() string { return "learned" }

func ccFeatures(m Measurement) []float64 {
	return []float64{
		stats.Clamp(float64(m.RTT)/float64(m.BaseRTT)-1, 0, 3), // queueing delay in baseRTTs
		stats.Clamp(m.RTTGradient*10, -3, 3),
		stats.Clamp(m.LossRate*20, 0, 3),
		stats.Clamp(m.RateMbps/m.CapacityHint, 0, 3),
	}
}

// Decide implements Controller: the network predicts a rate multiplier.
func (c *Learned) Decide(m Measurement) float64 {
	mult := c.net.Forward(ccFeatures(m))[0]
	mult = stats.Clamp(mult, 0.3, 1.6)
	return m.RateMbps * mult
}

// Reset implements Controller (the network is stateless per decision).
func (c *Learned) Reset() {}

// Clone fits the learned controller to imitate the teacher over a grid
// of clean measurements. Returns the final training loss.
func (c *Learned) Clone(teacher Controller, cfg PathConfig) (float64, error) {
	var inputs, targets [][]float64
	base := float64(cfg.BaseRTT)
	for _, qDelay := range []float64{0, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.5} {
		for _, grad := range []float64{-0.1, -0.05, -0.02, 0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2} {
			for _, loss := range []float64{0, 0.01, 0.05} {
				for _, rateFrac := range []float64{0.001, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9, 1.2} {
					m := Measurement{
						RTT:          kernel.Time(base * (1 + qDelay)),
						RTTGradient:  grad,
						LossRate:     loss,
						RateMbps:     rateFrac * cfg.CapacityMbps,
						BaseRTT:      cfg.BaseRTT,
						CapacityHint: cfg.CapacityMbps,
					}
					want := teacher.Decide(m) / m.RateMbps
					inputs = append(inputs, ccFeatures(m))
					targets = append(targets, []float64{want})
				}
			}
		}
	}
	return c.net.Train(inputs, targets, nn.TrainOpts{
		LearningRate: 0.02, Momentum: 0.9, BatchSize: 32, Epochs: 800, ShuffleSeed: 13,
	})
}
