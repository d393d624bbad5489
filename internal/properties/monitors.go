package properties

import (
	"fmt"

	"guardrails/internal/featurestore"
	"guardrails/internal/stats"
)

// RegretMonitor implements P4 (decision quality): it compares the
// learned policy's windowed reward against a shadow baseline evaluated
// on the same decisions and publishes the regret (baseline − learned).
// Positive regret means the learned policy is losing to the baseline.
type RegretMonitor struct {
	store    *featurestore.Store
	key      featurestore.ID
	learned  *stats.Window
	baseline *stats.Window
}

// RegretKey is the key convention: <policy>_regret.
func RegretKey(policy string) string { return policy + "_regret" }

// NewRegretMonitor returns a monitor windowing the last n paired rewards.
func NewRegretMonitor(store *featurestore.Store, policy string, n int) *RegretMonitor {
	return &RegretMonitor{
		store:    store,
		key:      store.Intern(RegretKey(policy)),
		learned:  stats.NewWindow(n),
		baseline: stats.NewWindow(n),
	}
}

// Observe records one paired outcome (e.g. hit=1/miss=0 for the learned
// cache and its shadow baseline on the same access).
func (m *RegretMonitor) Observe(learnedReward, baselineReward float64) {
	m.learned.Add(learnedReward)
	m.baseline.Add(baselineReward)
	m.store.SaveID(m.key, m.baseline.Mean()-m.learned.Mean())
}

// OverheadMonitor implements P5 (decision overhead): it accumulates the
// inference cost and the benefit attributable to each learned decision
// and publishes the cost/benefit ratio. A ratio above 1 means inference
// costs more than the policy saves.
type OverheadMonitor struct {
	store *featurestore.Store
	key   featurestore.ID
	cost  *stats.Window
	gain  *stats.Window
}

// OverheadKey is the key convention: <policy>_overhead_ratio.
func OverheadKey(policy string) string { return policy + "_overhead_ratio" }

// NewOverheadMonitor returns a monitor windowing the last n decisions.
func NewOverheadMonitor(store *featurestore.Store, policy string, n int) *OverheadMonitor {
	return &OverheadMonitor{
		store: store,
		key:   store.Intern(OverheadKey(policy)),
		cost:  stats.NewWindow(n),
		gain:  stats.NewWindow(n),
	}
}

// Observe records one decision's inference cost and realized benefit
// (both in the same unit, e.g. nanoseconds saved).
func (m *OverheadMonitor) Observe(costNS, gainNS float64) {
	m.cost.Add(costNS)
	m.gain.Add(gainNS)
	g := m.gain.Mean()
	if g <= 0 {
		// No benefit: publish a sentinel ratio well above any threshold.
		m.store.SaveID(m.key, 1e9)
		return
	}
	m.store.SaveID(m.key, m.cost.Mean()/g)
}

// Spec emits the P5 guardrail: inference must pay for itself; on
// violation disable the learned policy via its enable knob.
func (m *OverheadMonitor) Spec(name, policy, enableKey string, maxRatio, intervalNS float64) string {
	return BuildSpec(name,
		[]string{TimerTrigger(intervalNS)},
		[]string{fmt.Sprintf("LOAD(%s) <= %g", OverheadKey(policy), maxRatio)},
		[]string{
			fmt.Sprintf("REPORT(LOAD(%s))", OverheadKey(policy)),
			fmt.Sprintf("SAVE(%s, false)", enableKey),
		},
	)
}
