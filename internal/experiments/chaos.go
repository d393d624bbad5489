package experiments

import (
	"fmt"
	"sort"
	"strings"

	"guardrails/internal/faults"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/monitor"
)

// The chaos experiment guards the guardrails: it reruns the Figure 2
// comparison while a seeded fault plan attacks the guarded system's
// monitor runtime — evaluation traps, NaN feature reads, a retrain
// backend outage timed to the workload shift, and a replica lost
// mid-run. The run passes when the runtime degrades instead of dying:
// no fault crashes the run, every injected fault is surfaced in the
// report log or the dead-letter queue, the quarantined monitor comes
// back after its cooldown, and the guarded system still beats the
// unguarded one after the shift.

// KeyReplicasAlive is the feature the chaos stack publishes from the
// array's up/down notifications, watched by the redundancy guardrail.
const KeyReplicasAlive = "replicas_alive"

// chaosRetrainGuardrail asks for retraining while the false-submit rate
// is out of bounds — the action backend the fault plan knocks out.
const chaosRetrainGuardrail = `
guardrail fs-retrain {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { RETRAIN(linnos) }
}`

// chaosRedundancyGuardrail reports whenever the replica group is
// degraded — how the injected replica loss surfaces in the report log.
const chaosRedundancyGuardrail = `
guardrail replica-redundancy {
    trigger: { TIMER(start_time, 5e8) },
    rule: { LOAD(replicas_alive) >= 2 },
    action: { REPORT(LOAD(replicas_alive)) }
}`

// ChaosConfig parameterizes the chaos run.
type ChaosConfig struct {
	// Fig2 is the underlying Figure 2 configuration (phases, seed).
	Fig2 Fig2Config
}

// DefaultChaosConfig returns the standard chaos run: the default
// Figure 2 experiment under the standard fault plan.
func DefaultChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{Fig2: DefaultFig2Config(seed)}
}

// ChaosResult is the outcome of one chaos run.
type ChaosResult struct {
	// Fig2 carries the latency series and tail summary of the run.
	Fig2 *Fig2Result
	// Injected and Surfaced count faults per kind: delivered by the
	// plan vs visible in the report log or dead-letter queue. Missed is
	// the total shortfall — the acceptance criterion is zero.
	Injected map[faults.Kind]int
	Surfaced map[faults.Kind]int
	Missed   int
	// QuarantinedAt/RearmedAt bracket the breaker episode on the
	// Listing 2 monitor; RecoveryLatency is their difference.
	QuarantinedAt   kernel.Time
	RearmedAt       kernel.Time
	RecoveryLatency kernel.Time
	// DeadLetters is the dead-letter queue total at the end of the run.
	DeadLetters uint64
	// HookPanics counts monitor panics absorbed by the kernel guard.
	HookPanics uint64
	// Monitors snapshots each guardrail's counters.
	Monitors map[string]monitor.Stats
}

// RunChaos executes the chaos experiment.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	model, err := trainFig2Model(cfg.Fig2.Seed)
	if err != nil {
		return nil, fmt.Errorf("chaos: training: %w", err)
	}
	guarded, err := newFig2System(cfg.Fig2.Seed+100, model)
	if err != nil {
		return nil, err
	}
	unguarded, err := newFig2System(cfg.Fig2.Seed+100, model)
	if err != nil {
		return nil, err
	}

	// A panicking monitor must not take the simulated kernel with it.
	guarded.k.SetHookPanicHandler(func(site string, recovered any) {})

	// Publish replica liveness for the redundancy guardrail.
	guarded.st.Save(KeyReplicasAlive, float64(guarded.arr.AliveCount()))
	guarded.arr.SetNotify(func(int, bool) {
		guarded.st.Save(KeyReplicasAlive, float64(guarded.arr.AliveCount()))
	})

	rt := monitor.New(guarded.k, guarded.st)
	// Listing 2 runs fail-closed with the full self-protection kit: a
	// breaker that quarantines after 3 faults, a cooldown rearm, and a
	// fallback that parks the system in its safe state (ML off) while
	// the guardrail itself is untrusted.
	ms, err := rt.LoadSource(Listing2, monitor.Options{
		OnFault:          monitor.FailClosed,
		BreakerThreshold: 3,
		BreakerWindow:    10 * kernel.Second,
		Cooldown:         3 * kernel.Second,
		Fallback:         func(*monitor.Monitor) { guarded.st.Save(linnos.KeyMLEnabled, 0) },
		Restore:          func(*monitor.Monitor) { guarded.st.Save(linnos.KeyMLEnabled, 1) },
		RetryMax:         2,
		RetryBase:        200 * kernel.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: loading guardrail: %w", err)
	}
	mon := ms[0]
	// The retrain guardrail keeps its breaker off: its backend outage
	// must exercise the retry→dead-letter path, not quarantine.
	if _, err := rt.LoadSource(chaosRetrainGuardrail, monitor.Options{
		RetryMax:  2,
		RetryBase: 200 * kernel.Millisecond,
	}); err != nil {
		return nil, fmt.Errorf("chaos: loading retrain guardrail: %w", err)
	}
	if _, err := rt.LoadSource(chaosRedundancyGuardrail, monitor.Options{}); err != nil {
		return nil, fmt.Errorf("chaos: loading redundancy guardrail: %w", err)
	}
	// Drain accepted retrain requests periodically (training itself is
	// out of scope here — the chaos target is the request path).
	guarded.k.Every(5*kernel.Second, 5*kernel.Second, 0,
		func(kernel.Time) { _, _ = rt.Retrainer.RunPending(func(string) error { return nil }) })

	inj := faults.StandardChaos().Arm(guarded.k, guarded.arr)
	rt.SetFaultInjector(inj)

	res := &ChaosResult{
		Fig2: &Fig2Result{ShiftAt: kernel.Time(cfg.Fig2.CalmSeconds) * kernel.Second},
	}
	total := kernel.Time(cfg.Fig2.CalmSeconds+cfg.Fig2.ShiftSeconds) * kernel.Second

	var calmSum float64
	var calmN int
	shifted := false
	for t := cfg.Fig2.SampleEvery; t <= total; t += cfg.Fig2.SampleEvery {
		if !shifted && t > res.Fig2.ShiftAt {
			guarded.wl.SetWriteFraction(0.4)
			unguarded.wl.SetWriteFraction(0.4)
			shifted = true
		}
		guarded.run(t)
		unguarded.run(t)
		p := Fig2Point{
			TimeS:       float64(t) / float64(kernel.Second),
			GuardedUS:   guarded.st.Load(linnos.KeyLatencyMA),
			UnguardedUS: unguarded.st.Load(linnos.KeyLatencyMA),
		}
		res.Fig2.Series = append(res.Fig2.Series, p)
		if t <= res.Fig2.ShiftAt {
			calmSum += p.GuardedUS
			calmN++
		}
		if res.Fig2.GuardrailFiredAt == 0 && mon.Stats().ActionsFired > 0 {
			res.Fig2.GuardrailFiredAt = guarded.k.Now()
			res.Fig2.FalseSubmitRateAtTrigger = guarded.st.Load(linnos.KeyFalseSubmitRate)
		}
	}
	if calmN > 0 {
		res.Fig2.CalmUS = calmSum / float64(calmN)
	}
	tail := len(res.Fig2.Series) / 4
	var gSum, uSum float64
	for _, p := range res.Fig2.Series[len(res.Fig2.Series)-tail:] {
		gSum += p.GuardedUS
		uSum += p.UnguardedUS
	}
	res.Fig2.GuardedTailUS = gSum / float64(tail)
	res.Fig2.UnguardedTailUS = uSum / float64(tail)

	res.DeadLetters = rt.DeadLetter.Total()
	res.HookPanics = guarded.k.HookPanics()
	res.Monitors = make(map[string]monitor.Stats)
	for _, m := range rt.Monitors() {
		res.Monitors[m.Name()] = m.Stats()
	}

	// Recover the breaker episode's timestamps from the report log.
	for _, v := range rt.Log.Recent(100000) {
		if v.Guardrail != mon.Name() {
			continue
		}
		if res.QuarantinedAt == 0 && strings.HasPrefix(v.Note, "quarantined (") {
			res.QuarantinedAt = v.Time
		}
		if res.RearmedAt == 0 && strings.HasPrefix(v.Note, "rearmed (") {
			res.RearmedAt = v.Time
		}
	}
	if res.RearmedAt > res.QuarantinedAt {
		res.RecoveryLatency = res.RearmedAt - res.QuarantinedAt
	}

	// Audit: every injected fault must be visible somewhere.
	res.Injected = make(map[faults.Kind]int)
	for _, k := range []faults.Kind{faults.EvalTrap, faults.HelperFail, faults.LoadNaN,
		faults.LoadStale, faults.ActionFail, faults.ReplicaFail, faults.ReplicaHeal} {
		if n := inj.Count(k); n > 0 {
			res.Injected[k] = n
		}
	}
	res.Surfaced = surfacedFaults(rt)
	for k, injected := range res.Injected {
		if shortfall := injected - res.Surfaced[k]; shortfall > 0 {
			res.Missed += shortfall
		}
	}
	return res, nil
}

// surfacedFaults counts, per fault kind, the injections that left a
// visible trace in the report log or the dead-letter queue.
func surfacedFaults(rt *monitor.Runtime) map[faults.Kind]int {
	out := make(map[faults.Kind]int)
	var redundancyReports int
	for _, v := range rt.Log.Recent(100000) {
		switch {
		case strings.Contains(v.Note, "monitor fault [injected-trap]"):
			out[faults.EvalTrap]++
		case strings.Contains(v.Note, "monitor fault [helper-trap]"):
			out[faults.HelperFail]++
		case strings.Contains(v.Note, "monitor fault [corrupt-load]"):
			out[faults.LoadNaN]++
		case strings.Contains(v.Note, "failed (attempt"):
			out[faults.ActionFail]++
		case v.Guardrail == "replica-redundancy" && v.Note == "":
			redundancyReports++
		}
	}
	// Dead-lettered actions are already counted through their
	// "failed (attempt" notes; the queue itself is audited separately.
	// The replica events surface through the redundancy guardrail's
	// reports: loss ⇒ reports start, heal ⇒ the run ends with the
	// property holding again. Credit one surfacing per event when the
	// degraded window produced reports.
	if redundancyReports > 0 {
		out[faults.ReplicaFail] = 1
		out[faults.ReplicaHeal] = 1
	}
	return out
}

// Render prints the chaos run summary, including the recovery-latency
// accounting the bench's -chaos flag reports.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	b.WriteString("== Chaos: Figure 2 under fault injection ==\n")
	fmt.Fprintf(&b, "post-shift tail: unguarded %.1fus vs guarded %.1fus (%.2fx better)\n",
		r.Fig2.UnguardedTailUS, r.Fig2.GuardedTailUS, r.Fig2.UnguardedTailUS/r.Fig2.GuardedTailUS)
	fmt.Fprintf(&b, "guardrail fired at %s (false_submit_rate=%.3f)\n",
		r.Fig2.GuardrailFiredAt, r.Fig2.FalseSubmitRateAtTrigger)
	fmt.Fprintf(&b, "breaker: quarantined at %s, rearmed at %s, recovery latency %s\n",
		r.QuarantinedAt, r.RearmedAt, r.RecoveryLatency)
	fmt.Fprintf(&b, "dead letters: %d | hook panics absorbed: %d\n", r.DeadLetters, r.HookPanics)
	b.WriteString("fault audit (injected -> surfaced):\n")
	for _, k := range []faults.Kind{faults.EvalTrap, faults.HelperFail, faults.LoadNaN,
		faults.LoadStale, faults.ActionFail, faults.ReplicaFail, faults.ReplicaHeal} {
		if n, ok := r.Injected[k]; ok {
			fmt.Fprintf(&b, "  %-12s %3d -> %d\n", k.String(), n, r.Surfaced[k])
		}
	}
	fmt.Fprintf(&b, "missed faults: %d\n", r.Missed)
	names := make([]string, 0, len(r.Monitors))
	for name := range r.Monitors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Monitors[name]
		fmt.Fprintf(&b, "monitor %-20s evals=%d violations=%d traps=%d quarantines=%d rearms=%d retries=%d deadletters=%d\n",
			name, s.Evals, s.Violations, s.Traps, s.Quarantines, s.Rearms, s.Retries, s.DeadLetters)
	}
	return b.String()
}
