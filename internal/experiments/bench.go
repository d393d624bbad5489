package experiments

import (
	"encoding/json"
	"io"

	"guardrails/internal/kernel"
)

// Bench summaries: compact machine-readable records of an experiment
// run, committed as BENCH_*.json snapshots so regressions in the
// reproduced numbers show up as diffs. Every value is derived from
// simulated time and seeded randomness — a given seed produces a
// byte-identical file on every machine.

// BenchConfig is one system configuration's whole-run summary.
type BenchConfig struct {
	// Config names the system variant (the legend label in Figure 2).
	Config string `json:"config"`
	// Read is the exact whole-run read-latency summary.
	Read LatencySummary `json:"read_latency"`
	// Monitor accounting; all zero for the unguarded configuration.
	Evals        uint64 `json:"evals"`
	Violations   uint64 `json:"violations"`
	ActionsFired uint64 `json:"actions_fired"`
	// Recoveries is always 0: nothing counts recovery episodes any
	// more, and the key stays so the snapshot keeps its schema.
	Recoveries uint64 `json:"recoveries"`
	VMSteps    uint64 `json:"vm_steps"`
}

// BenchFig2 is the committed benchmark snapshot of the Figure 2 run.
type BenchFig2 struct {
	Seed              int64         `json:"seed"`
	ShiftAtS          float64       `json:"shift_at_s"`
	GuardrailFiredAtS float64       `json:"guardrail_fired_at_s"`
	FalseSubmitRate   float64       `json:"false_submit_rate_at_trigger"`
	CalmUS            float64       `json:"calm_mean_us"`
	GuardedTailUS     float64       `json:"guarded_tail_us"`
	UnguardedTailUS   float64       `json:"unguarded_tail_us"`
	Configs           []BenchConfig `json:"configs"`
}

// NewBenchFig2 reduces a Figure 2 result (run with CollectLatencies)
// to its benchmark snapshot.
func NewBenchFig2(cfg Fig2Config, r *Fig2Result) *BenchFig2 {
	st := r.GuardedMonitorStats
	return &BenchFig2{
		Seed:              cfg.Seed,
		ShiftAtS:          float64(r.ShiftAt) / float64(kernel.Second),
		GuardrailFiredAtS: float64(r.GuardrailFiredAt) / float64(kernel.Second),
		FalseSubmitRate:   r.FalseSubmitRateAtTrigger,
		CalmUS:            r.CalmUS,
		GuardedTailUS:     r.GuardedTailUS,
		UnguardedTailUS:   r.UnguardedTailUS,
		Configs: []BenchConfig{
			{
				Config: "linnos",
				Read:   r.UnguardedRead,
			},
			{
				Config:       "linnos+guardrails",
				Read:         r.GuardedRead,
				Evals:        st.Evals,
				Violations:   st.Violations,
				ActionsFired: st.ActionsFired,
				VMSteps:      st.VMSteps,
			},
		},
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (b *BenchFig2) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
