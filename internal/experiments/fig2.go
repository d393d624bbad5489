package experiments

import (
	"fmt"
	"strings"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/storage"
	"guardrails/internal/telemetry"
	"guardrails/internal/trace"
)

// Listing2 is the paper's Listing 2 guardrail, verbatim in our grammar.
const Listing2 = `
guardrail low-false-submit {
    trigger: {
        TIMER(start_time, 1e9) // Periodically check every 1s.
    },
    rule: {
        LOAD(false_submit_rate) <= 0.05
    },
    action: {
        SAVE(ml_enabled, false)
    }
}`

// Fig2Config parameterizes the Figure 2 reproduction.
type Fig2Config struct {
	// Seed drives all randomness.
	Seed int64
	// CalmSeconds and ShiftSeconds are the two phase durations.
	CalmSeconds  int
	ShiftSeconds int
	// SampleEvery is the moving-average sampling period.
	SampleEvery kernel.Time
	// Telemetry, when non-nil, is attached to the guarded stack (kernel
	// hook dispatch, monitor runtime, feature store, storage array); its
	// clock is bound to the guarded kernel.
	Telemetry *telemetry.Sink
	// Provenance, when non-nil, records sampled per-fire decision
	// provenance for the guarded stack's monitor runtime. The simulated
	// results are identical with or without it attached.
	Provenance *provenance.Recorder
	// CollectLatencies gathers every read's latency for the exact
	// percentile summaries in Fig2Result (BENCH_fig2.json input).
	CollectLatencies bool
}

// DefaultFig2Config returns the standard experiment: 20 s calm phase,
// then 40 s of the write-heavy shifted phase.
func DefaultFig2Config(seed int64) Fig2Config {
	return Fig2Config{
		Seed:         seed,
		CalmSeconds:  20,
		ShiftSeconds: 40,
		SampleEvery:  250 * kernel.Millisecond,
	}
}

// Fig2Point is one sample of the latency moving average for both
// systems.
type Fig2Point struct {
	TimeS       float64
	GuardedUS   float64
	UnguardedUS float64
}

// Fig2Result is the reproduction of the paper's Figure 2.
type Fig2Result struct {
	Series []Fig2Point
	// GuardrailFiredAt is when the false-submit guardrail disabled the
	// model in the guarded system (0 if it never fired).
	GuardrailFiredAt kernel.Time
	// ShiftAt is when the workload shifted.
	ShiftAt kernel.Time
	// Post-shift steady-state means (last quarter of the run).
	GuardedTailUS   float64
	UnguardedTailUS float64
	// CalmUS is the shared pre-shift mean (guarded system).
	CalmUS float64
	// FalseSubmitRateAtTrigger is the rate the guardrail saw.
	FalseSubmitRateAtTrigger float64
	// GuardedRead / UnguardedRead are exact whole-run read-latency
	// percentiles, filled when Fig2Config.CollectLatencies is set.
	GuardedRead   LatencySummary
	UnguardedRead LatencySummary
	// GuardedMonitorStats is the Listing 2 monitor's final accounting.
	GuardedMonitorStats monitor.Stats
}

// LatencySummary is an exact (every sample, no sketch) latency summary
// in microseconds.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// summarizeLatencies computes exact percentiles from per-read latencies
// (simulated ns), reported in µs: the values a full sort would put at
// the three percentile indices, found by selection instead. The input
// slice is reordered in place (partitioned around those indices, not
// sorted). Latencies are whole nanoseconds and a run's total is far
// below 2^53, so the sum, and with it the mean, is exact in any order.
func summarizeLatencies(ns []float64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	var sum float64
	for _, v := range ns {
		sum += v
	}
	at := func(p float64) int { return int(p * float64(len(ns)-1)) }
	i50, i95, i99 := at(0.50), at(0.95), at(0.99)
	// Each selection leaves everything smaller in the prefix before its
	// index, so the next lower percentile is selected in that prefix.
	p99 := selectNth(ns, i99)
	p95 := p99
	if i95 < i99 {
		p95 = selectNth(ns[:i99], i95)
	}
	p50 := p95
	if i50 < i95 {
		p50 = selectNth(ns[:i95], i50)
	}
	return LatencySummary{
		Count:  len(ns),
		MeanUS: sum / float64(len(ns)) / 1e3,
		P50US:  p50 / 1e3,
		P95US:  p95 / 1e3,
		P99US:  p99 / 1e3,
	}
}

// selectNth reorders ns so that ns[k] is the value a sort would put
// there, with nothing larger before it and nothing smaller after it, and
// returns that value (Hoare's quickselect, median-of-three pivots;
// stopping both scans on values equal to the pivot keeps runs of
// duplicates splitting evenly).
func selectNth(ns []float64, k int) float64 {
	lo, hi := 0, len(ns)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if ns[mid] < ns[lo] {
			ns[mid], ns[lo] = ns[lo], ns[mid]
		}
		if ns[hi] < ns[lo] {
			ns[hi], ns[lo] = ns[lo], ns[hi]
		}
		if ns[hi] < ns[mid] {
			ns[hi], ns[mid] = ns[mid], ns[hi]
		}
		pivot := ns[mid]
		i, j := lo, hi
		for i <= j {
			for ns[i] < pivot {
				i++
			}
			for ns[j] > pivot {
				j--
			}
			if i <= j {
				ns[i], ns[j] = ns[j], ns[i]
				i++
				j--
			}
		}
		// ns[lo..j] <= pivot <= ns[i..hi], and anything between j and i
		// equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return ns[k]
		}
	}
	return ns[k]
}

// fig2System is one complete LinnOS stack (kernel, store, array, engine).
type fig2System struct {
	k      *kernel.Kernel
	st     *featurestore.Store
	arr    *storage.Array
	engine *linnos.Engine
	wl     *linnos.MixedWorkload

	// readLats, when non-nil, accumulates per-read latencies (simulated
	// ns) for the exact bench percentiles.
	readLats []float64
}

// fig2OpsPerSec is the workload's arrival rate (reads and writes) per
// simulated second.
const fig2OpsPerSec = 20000

// stackParams tune the LinnOS stack for an experiment.
type stackParams struct {
	// gcDuration is the flash GC pause: it sets the cost of an unhedged
	// misprediction (the false-submit exposure).
	gcDuration kernel.Time
	// inferenceCost is added to every ML-routed read (P5 sweeps it).
	inferenceCost kernel.Time
	// revokeTimeout is the baseline failover hedge.
	revokeTimeout kernel.Time
}

// fig2Params is the Figure 2 configuration: long GC pauses make
// unhedged mispredictions expensive — the exposure the paper's
// false-submit guardrail bounds.
func fig2Params() stackParams {
	return stackParams{
		gcDuration:    16 * kernel.Millisecond,
		inferenceCost: linnos.DefaultConfig().InferenceCost,
		revokeTimeout: 1500 * kernel.Microsecond,
	}
}

func newFig2System(seed int64, model *linnos.Classifier) (*fig2System, error) {
	return newStack(seed, model, fig2Params())
}

// newStack builds a complete LinnOS stack with the given parameters.
func newStack(seed int64, model *linnos.Classifier, p stackParams) (*fig2System, error) {
	mkDev := func(name string, s int64) (*storage.Device, error) {
		cfg := storage.DefaultDeviceConfig(name, s)
		cfg.BackgroundGCRate = 0.5
		cfg.GCDuration = p.gcDuration
		// Independent FTL layouts per replica: the same LBA maps to
		// different chips, so failover can actually escape congestion.
		cfg.ChipSalt = uint64(trace.Split(s, "layout/"+name))
		return storage.NewDevice(cfg)
	}
	primary, err := mkDev("primary", seed)
	if err != nil {
		return nil, err
	}
	replica, err := mkDev("replica", seed+1)
	if err != nil {
		return nil, err
	}
	arr, err := storage.NewArray(primary, replica)
	if err != nil {
		return nil, err
	}
	k := kernel.New()
	st := featurestore.New()
	ecfg := linnos.DefaultConfig()
	ecfg.InferenceCost = p.inferenceCost
	// Revocation and re-issue are not free in real failover stacks,
	// which is precisely the cost LinnOS's upfront prediction avoids
	// (the model's in-distribution advantage). No safety backstop on the
	// ML path: the model's word is final — the exposure the guardrail
	// exists to bound.
	ecfg.RevokeTimeout = p.revokeTimeout
	ecfg.MLSafetyTimeout = 0
	// Convert explicitly so a nil *Classifier becomes a nil interface
	// (a typed nil would make the engine believe it has a model).
	var pred linnos.Predictor
	if model != nil {
		pred = model
	}
	engine, err := linnos.NewEngine(k, st, arr, pred, ecfg)
	if err != nil {
		return nil, err
	}
	keys := trace.NewZipfKeys(trace.Split(seed, "keys"), 1<<16, 1.2, true)
	wl := linnos.NewMixedWorkload(seed, fig2OpsPerSec, 0.05, keys)
	// Reads have Zipf locality; writes are log-structured (uniform) so
	// no single chip is write-overloaded.
	wl.SetWriteKeys(trace.NewUniformKeys(trace.Split(seed, "wkeys"), 1<<16))
	return &fig2System{k: k, st: st, arr: arr, engine: engine, wl: wl}, nil
}

// run advances the system until the workload clock passes until,
// applying ops and letting kernel timers fire in between.
func (s *fig2System) run(until kernel.Time) {
	for s.wl.Now() < until {
		op := s.wl.Next()
		s.k.RunUntil(op.At)
		if op.Write {
			s.engine.Write(op.At, op.LBA)
		} else {
			lat, _ := s.engine.Read(op.At, op.LBA)
			if s.readLats != nil {
				s.readLats = append(s.readLats, float64(lat))
			}
		}
	}
}

// trainFig2Model trains the LinnOS classifier on a scratch array under
// the calm-phase workload with the Figure 2 stack parameters.
func trainFig2Model(seed int64) (*linnos.Classifier, error) {
	return trainModel(seed, fig2Params())
}

// trainModel trains on scratch devices matching the experiment's
// parameters.
func trainModel(seed int64, p stackParams) (*linnos.Classifier, error) {
	mk := func(name string, s int64) (*storage.Device, error) {
		cfg := storage.DefaultDeviceConfig(name, s)
		cfg.BackgroundGCRate = 0.5
		cfg.GCDuration = p.gcDuration
		cfg.ChipSalt = uint64(trace.Split(s, "layout/"+name))
		return storage.NewDevice(cfg)
	}
	primary, err := mk("train-primary", trace.Split(seed, "train0"))
	if err != nil {
		return nil, err
	}
	replica, err := mk("train-replica", trace.Split(seed, "train1"))
	if err != nil {
		return nil, err
	}
	arr, err := storage.NewArray(primary, replica)
	if err != nil {
		return nil, err
	}
	keys := trace.NewZipfKeys(trace.Split(seed, "train-keys"), 1<<16, 1.2, true)
	wl := linnos.NewMixedWorkload(trace.Split(seed, "train-wl"), fig2OpsPerSec, 0.05, keys)
	wl.SetWriteKeys(trace.NewUniformKeys(trace.Split(seed, "train-wkeys"), 1<<16))
	model, _, err := linnos.TrainedClassifier(arr, wl, 40000, kernel.Millisecond, trace.Split(seed, "model"), 0.75)
	return model, err
}

// RunFig2 reproduces Figure 2: two identical LinnOS deployments run the
// same workload; one carries the Listing 2 guardrail, the other does
// not. Mid-run the workload shifts write-heavy; the guarded system's
// false-submit guardrail fires and falls back to the hedged baseline,
// recovering its latency, while the unguarded system keeps degrading.
func RunFig2(cfg Fig2Config) (*Fig2Result, error) {
	model, err := trainFig2Model(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig2: training: %w", err)
	}

	guarded, err := newFig2System(cfg.Seed+100, model)
	if err != nil {
		return nil, err
	}
	unguarded, err := newFig2System(cfg.Seed+100, model) // identical seeds
	if err != nil {
		return nil, err
	}

	if cfg.CollectLatencies {
		// Sized once: reads are at most the operations the workload
		// issues, rate x duration on average.
		ops := fig2OpsPerSec * (cfg.CalmSeconds + cfg.ShiftSeconds)
		guarded.readLats = make([]float64, 0, ops)
		unguarded.readLats = make([]float64, 0, ops)
	}

	rt := monitor.New(guarded.k, guarded.st)
	if cfg.Telemetry != nil {
		// The guarded stack is the instrumented one: hook dispatch,
		// monitor evaluations, feature-store traffic, and storage GC all
		// flow into the one sink.
		cfg.Telemetry.SetClock(func() telemetry.Time { return int64(guarded.k.Now()) })
		guarded.k.SetTelemetry(cfg.Telemetry)
		guarded.st.SetTelemetry(cfg.Telemetry)
		guarded.arr.SetTelemetry(cfg.Telemetry)
		rt.SetTelemetry(cfg.Telemetry)
	}
	if cfg.Provenance != nil {
		rt.SetProvenance(cfg.Provenance)
	}
	ms, err := rt.LoadSource(Listing2, monitor.Options{})
	if err != nil {
		return nil, fmt.Errorf("fig2: loading guardrail: %w", err)
	}
	mon := ms[0]

	res := &Fig2Result{ShiftAt: kernel.Time(cfg.CalmSeconds) * kernel.Second}
	total := kernel.Time(cfg.CalmSeconds+cfg.ShiftSeconds) * kernel.Second

	var calmSum float64
	var calmN int
	shifted := false
	for t := cfg.SampleEvery; t <= total; t += cfg.SampleEvery {
		if !shifted && t > res.ShiftAt {
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
		res.Series = append(res.Series, p)
		if t <= res.ShiftAt {
			calmSum += p.GuardedUS
			calmN++
		}
		if res.GuardrailFiredAt == 0 && mon.Stats().ActionsFired > 0 {
			res.GuardrailFiredAt = guarded.k.Now()
			res.FalseSubmitRateAtTrigger = guarded.st.Load(linnos.KeyFalseSubmitRate)
		}
	}
	if calmN > 0 {
		res.CalmUS = calmSum / float64(calmN)
	}
	tail := len(res.Series) / 4
	var gSum, uSum float64
	for _, p := range res.Series[len(res.Series)-tail:] {
		gSum += p.GuardedUS
		uSum += p.UnguardedUS
	}
	res.GuardedTailUS = gSum / float64(tail)
	res.UnguardedTailUS = uSum / float64(tail)
	res.GuardedMonitorStats = mon.Stats()
	if cfg.CollectLatencies {
		res.GuardedRead = summarizeLatencies(guarded.readLats)
		res.UnguardedRead = summarizeLatencies(unguarded.readLats)
	}
	return res, nil
}

// Render prints the Figure 2 series and summary the way the paper's
// figure reads: time on the x-axis, latency moving average on the y.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	b.WriteString("== Figure 2: I/O latency moving average (us) ==\n")
	b.WriteString("time_s  linnos  linnos_w_guardrails\n")
	for _, p := range r.Series {
		fmt.Fprintf(&b, "%6.2f  %6.1f  %6.1f\n", p.TimeS, p.UnguardedUS, p.GuardedUS)
	}
	fmt.Fprintf(&b, "\nworkload shift at %s; guardrail fired at %s (false_submit_rate=%.3f)\n",
		r.ShiftAt, r.GuardrailFiredAt, r.FalseSubmitRateAtTrigger)
	fmt.Fprintf(&b, "calm mean %.1fus | post-shift tail: unguarded %.1fus vs guarded %.1fus (%.2fx better)\n",
		r.CalmUS, r.UnguardedTailUS, r.GuardedTailUS, r.UnguardedTailUS/r.GuardedTailUS)
	return b.String()
}
