package experiments

import (
	"fmt"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/monitor"
	"guardrails/internal/properties"
)

// reenableGuardrail re-enables the model once latency recovers — the
// second guardrail of the §6 feedback-loop study. Its property is
// "either the model is on, or latency is (still) bad"; the violation
// (model off AND latency healthy) triggers re-enablement.
const reenableGuardrail = `
guardrail reenable-ml {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(ml_enabled) == 1 || LOAD(io_latency_ma_us) > 1200 },
    action: { SAVE(ml_enabled, true) }
}`

// OscillationResult is the §6 feedback-loop study: two coupled
// guardrails (disable-on-false-submits, re-enable-on-recovery) can
// oscillate; hysteresis damps the loop.
type OscillationResult struct {
	TogglesNoHysteresis   int
	TogglesWithHysteresis int
}

// RunOscillation runs the guarded LinnOS stack through the shifted phase
// with both guardrails loaded, first without hysteresis, then with a
// violation streak on the re-enable guardrail.
func RunOscillation(seed int64) (*OscillationResult, error) {
	model, err := trainFig2Model(seed)
	if err != nil {
		return nil, err
	}
	runOnce := func(hysteresis bool) (int, error) {
		sys, err := newFig2System(seed+300, model)
		if err != nil {
			return 0, err
		}
		rt := monitor.New(sys.k, sys.st)
		if _, err := rt.LoadSource(Listing2, monitor.Options{}); err != nil {
			return 0, err
		}
		opts := monitor.Options{}
		if hysteresis {
			opts.ViolationStreak = 5
		}
		if _, err := rt.LoadSource(reenableGuardrail, opts); err != nil {
			return 0, err
		}
		toggles := 0
		last := sys.st.Load(linnos.KeyMLEnabled)
		sys.st.Watch(linnos.KeyMLEnabled, func(_ string, v float64) {
			if v != last {
				toggles++
				last = v
			}
		})
		// Straight into the shifted phase: the conflict zone.
		sys.wl.SetWriteFraction(0.4)
		for t := kernel.Second; t <= 60*kernel.Second; t += kernel.Second {
			sys.run(t)
		}
		return toggles, nil
	}
	res := &OscillationResult{}
	var terr error
	if res.TogglesNoHysteresis, terr = runOnce(false); terr != nil {
		return nil, terr
	}
	if res.TogglesWithHysteresis, terr = runOnce(true); terr != nil {
		return nil, terr
	}
	return res, nil
}

// Render formats the oscillation study.
func (r *OscillationResult) Render() string {
	t := &Table{
		Title:   "§6 feedback loops: coupled guardrails oscillate; hysteresis damps the loop",
		Columns: []string{"configuration", "ml_enabled toggles (60s shifted phase)"},
		Rows: [][]string{
			{"disable + re-enable, no hysteresis", fmt.Sprintf("%d", r.TogglesNoHysteresis)},
			{"disable + re-enable, violation streak 5", fmt.Sprintf("%d", r.TogglesWithHysteresis)},
		},
	}
	return t.String()
}

// TriggerRow is one trigger mechanism in the §6 trigger study.
type TriggerRow struct {
	Mechanism string
	Detection kernel.Time // delay from quality drop to alarm
	Evals     uint64      // rule evaluations over the run (overhead)
}

// RunTriggerSweep compares periodic TIMER checking at several intervals
// against dependency-triggered checking (§6's "check only when relevant
// state changes"): a service-quality signal degrades at a known time;
// each mechanism races to set the alarm.
func RunTriggerSweep(seed int64) ([]TriggerRow, error) {
	const (
		shiftAt  = 2*kernel.Second + 3*kernel.Millisecond
		total    = 8 * kernel.Second
		writeGap = 5 * kernel.Millisecond
	)
	type variant struct {
		name     string
		interval kernel.Time // 0 = dependency trigger
	}
	variants := []variant{
		{"TIMER 10ms", 10 * kernel.Millisecond},
		{"TIMER 100ms", 100 * kernel.Millisecond},
		{"TIMER 1s", kernel.Second},
		{"TIMER 5s", 5 * kernel.Second},
		{"dependency", 0},
	}
	var rows []TriggerRow
	for _, v := range variants {
		k := kernel.New()
		st := featurestore.New()
		rt := monitor.New(k, st)
		interval := v.interval
		opts := monitor.Options{}
		if interval == 0 {
			// Dependency triggering with a sentinel long timer.
			interval = total * 10
			opts.DependencyTrigger = true
		}
		spec := properties.BuildSpec("quality-floor",
			[]string{properties.TimerTrigger(float64(interval))},
			[]string{"LOAD(svc_quality) >= 0.8"},
			[]string{"SAVE(alarm, 1)"},
		)
		ms, err := rt.LoadSource(spec, opts)
		if err != nil {
			return nil, err
		}
		var alarmAt kernel.Time
		st.Watch("alarm", func(_ string, val float64) {
			if val == 1 && alarmAt == 0 {
				alarmAt = k.Now()
			}
		})
		k.Every(0, writeGap, total, func(now kernel.Time) {
			q := 1.0
			if now >= shiftAt {
				q = 0.5
			}
			st.Save("svc_quality", q)
		})
		k.RunUntil(total + 1)
		row := TriggerRow{Mechanism: v.name, Evals: ms[0].Stats().Evals}
		if alarmAt > 0 {
			row.Detection = alarmAt - shiftAt
		} else {
			row.Detection = -1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTriggers formats the trigger study.
func RenderTriggers(rows []TriggerRow) string {
	t := &Table{
		Title:   "§6 trigger mechanisms: detection delay vs. checking overhead (8s run, quality drop at 2.003s)",
		Columns: []string{"mechanism", "detection_delay", "rule_evaluations"},
	}
	for _, r := range rows {
		det := "never"
		if r.Detection >= 0 {
			det = r.Detection.String()
		}
		t.Rows = append(t.Rows, []string{r.Mechanism, det, fmt.Sprintf("%d", r.Evals)})
	}
	t.Notes = append(t.Notes,
		"dependency triggering detects on the next relevant write at per-write cost; timers trade delay for fewer checks")
	return t.String()
}
