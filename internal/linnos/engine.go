package linnos

import (
	"fmt"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/stats"
	"guardrails/internal/storage"
)

// Feature-store keys the engine publishes. Guardrail specs reference
// these names (Listing 2 reads false_submit_rate and writes ml_enabled).
const (
	// KeyMLEnabled is the control knob: non-zero means the learned
	// predictor routes reads. The guardrail's SAVE(ml_enabled, false)
	// writes it; the engine reads it on every I/O.
	KeyMLEnabled = "ml_enabled"
	// KeyFalseSubmitRate is the windowed fraction of reads predicted
	// fast that turned out slow.
	KeyFalseSubmitRate = "false_submit_rate"
	// KeyLatencyMA is the moving average of read latencies in
	// microseconds (Figure 2's y-axis).
	KeyLatencyMA = "io_latency_ma_us"
	// HookIOComplete fires on every completed read with the latency in
	// microseconds as its argument.
	HookIOComplete = "io_complete"
)

// Config parameterizes the engine.
type Config struct {
	// SlowThreshold labels an access slow (training label, false-submit
	// definition). LinnOS uses the latency knee; ours sits well above
	// the fast mode (~100µs) and below GC pauses (~8ms).
	SlowThreshold kernel.Time
	// RevokeTimeout is the baseline failover policy's hedge: a read
	// still outstanding after this long is revoked and re-issued to a
	// replica.
	RevokeTimeout kernel.Time
	// MLSafetyTimeout is the backstop hedge on ML-trusted reads: the
	// deployment keeps the cluster's revocation logic armed, but at a
	// much longer fuse than the baseline's (the model is trusted first;
	// see §5 — LinnOS sits on top of existing failover logic). Zero
	// disables the backstop entirely.
	MLSafetyTimeout kernel.Time
	// InferenceCost is added to every ML-routed read, modelling
	// in-kernel inference latency (LinnOS reports ~4–6µs quantized).
	InferenceCost kernel.Time
	// RateWindow is the number of recent predicted-fast reads over
	// which the false-submit rate is computed.
	RateWindow int
	// MAWindow is the moving-average window (reads) for KeyLatencyMA.
	MAWindow int
}

// DefaultConfig returns the configuration used by the Figure 2
// experiment.
func DefaultConfig() Config {
	return Config{
		SlowThreshold:   kernel.Millisecond,
		RevokeTimeout:   500 * kernel.Microsecond,
		MLSafetyTimeout: 2 * kernel.Millisecond,
		InferenceCost:   6 * kernel.Microsecond,
		RateWindow:      256,
		MAWindow:        512,
	}
}

// Route says how a read was served.
type Route int

// Routes.
const (
	// RoutePrimary: submitted to the primary and trusted to completion.
	RoutePrimary Route = iota
	// RouteFailover: predicted slow, immediately served by a replica.
	RouteFailover
	// RouteHedged: baseline path revoked the primary read at the
	// timeout and re-issued to a replica.
	RouteHedged
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RoutePrimary:
		return "primary"
	case RouteFailover:
		return "failover"
	case RouteHedged:
		return "hedged"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// EngineStats aggregates engine activity.
type EngineStats struct {
	Reads        uint64
	TotalLatency kernel.Time
}

// Predictor classifies an access as slow from its feature vector; the
// trained Classifier is the production implementation, and tests inject
// deterministic stand-ins. An implementation must not retain features:
// the engine passes a view of a buffer it overwrites on the next
// prediction.
type Predictor interface {
	PredictSlow(features []float64) bool
}

// Engine is the LinnOS I/O path: reads are routed by the learned
// classifier when enabled, or by the baseline hedged-failover heuristic
// otherwise. All interesting signals are published to the feature store
// so guardrails can monitor them.
type Engine struct {
	k     *kernel.Kernel
	store *featurestore.Store
	arr   *storage.Array
	model Predictor
	cfg   Config

	mlEnabledID featurestore.ID
	falseRateID featurestore.ID
	maID        featurestore.ID

	fsWindow *stats.RateWindow
	maWindow *stats.Window

	// feat is the feature vector of the prediction in progress.
	feat [NumFeatures]float64

	stats EngineStats
}

// NewEngine builds an engine over a replica array. The model may be nil
// (pure baseline); ml_enabled is initialized to 1 when a model is
// supplied.
func NewEngine(k *kernel.Kernel, store *featurestore.Store, arr *storage.Array, model Predictor, cfg Config) (*Engine, error) {
	if cfg.SlowThreshold <= 0 || cfg.RevokeTimeout <= 0 {
		return nil, fmt.Errorf("linnos: thresholds must be positive")
	}
	if cfg.RateWindow <= 0 || cfg.MAWindow <= 0 {
		return nil, fmt.Errorf("linnos: window sizes must be positive")
	}
	e := &Engine{
		k: k, store: store, arr: arr, model: model, cfg: cfg,
		mlEnabledID: store.Intern(KeyMLEnabled),
		falseRateID: store.Intern(KeyFalseSubmitRate),
		maID:        store.Intern(KeyLatencyMA),
		fsWindow:    stats.NewRateWindow(cfg.RateWindow),
		maWindow:    stats.NewWindow(cfg.MAWindow),
	}
	if model != nil {
		store.SaveID(e.mlEnabledID, 1)
	}
	return e, nil
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// MLEnabled reports the current value of the ml_enabled knob.
func (e *Engine) MLEnabled() bool {
	return e.model != nil && e.store.LoadID(e.mlEnabledID) != 0
}

// Write mirrors a write to all replicas.
func (e *Engine) Write(now kernel.Time, lba uint64) kernel.Time {
	return e.arr.Write(now, lba)
}

// Read serves one read and returns its end-to-end latency and route.
//
//guardrails:hotpath
func (e *Engine) Read(now kernel.Time, lba uint64) (kernel.Time, Route) {
	var lat kernel.Time
	var route Route
	if e.MLEnabled() {
		lat, route = e.readML(now, lba)
	} else {
		lat, route = e.readBaseline(now, lba)
	}

	e.stats.Reads++
	e.stats.TotalLatency += lat
	e.maWindow.Add(float64(lat) / float64(kernel.Microsecond))
	e.store.SaveID(e.maID, e.maWindow.Mean())
	e.k.Fire(HookIOComplete, float64(lat)/float64(kernel.Microsecond))
	return lat, route
}

// predictSlow asks the model about a read submitted to d at time now.
//
//guardrails:hotpath
func (e *Engine) predictSlow(d *storage.Device, now kernel.Time) bool {
	fillFeatures(&e.feat, d, now)
	return e.model.PredictSlow(e.feat[:])
}

// readML is the LinnOS path: predict on the primary's features; on a
// slow prediction, predict on the replica and serve from it when it
// looks fast (LinnOS re-issues only to replicas its model likes).
// Wherever the read lands, the model's word is trusted to completion
// (no hedge) — the false-submit exposure the guardrail bounds.
//
//guardrails:hotpath
func (e *Engine) readML(now kernel.Time, lba uint64) (kernel.Time, Route) {
	primary := e.arr.Primary()
	replica := e.arr.Secondary()
	cost := e.cfg.InferenceCost

	target, route := primary, RoutePrimary
	predictedFast := true
	if e.predictSlow(primary, now) {
		cost += e.cfg.InferenceCost
		if e.predictSlow(replica, now) {
			// Both predicted slow: stay on the primary (re-issuing buys
			// nothing) and accept the wait, exactly like LinnOS.
			predictedFast = false
		} else {
			target, route = replica, RouteFailover
		}
	}
	lat := cost + target.Submit(now+cost, lba, false)
	// Safety backstop: a predicted-fast read that overshoots the (long)
	// ML fuse is revoked to the other replica, bounding the worst case.
	if predictedFast && e.cfg.MLSafetyTimeout > 0 && lat > cost+e.cfg.MLSafetyTimeout {
		other := replica
		if target == replica {
			other = primary
		}
		lat = cost + e.cfg.MLSafetyTimeout + other.Submit(now+cost+e.cfg.MLSafetyTimeout, lba, false)
	}
	// A false submit is a read the model waved through as fast that
	// turned out slow; predicted-slow reads are not counted (the model
	// called them correctly or pessimistically, not unsafely).
	if predictedFast {
		e.fsWindow.Add(lat > e.cfg.SlowThreshold)
		e.store.SaveID(e.falseRateID, e.fsWindow.Rate())
	}
	return lat, route
}

// readBaseline is the vanilla failover heuristic: submit to the
// primary; if the access would exceed the revoke timeout, cancel and
// re-issue to the replica, paying timeout + replica latency.
//
//guardrails:hotpath
func (e *Engine) readBaseline(now kernel.Time, lba uint64) (kernel.Time, Route) {
	primary := e.arr.Primary()
	lat := primary.Submit(now, lba, false)
	if lat <= e.cfg.RevokeTimeout {
		return lat, RoutePrimary
	}
	replicaLat := e.arr.Secondary().Submit(now+e.cfg.RevokeTimeout, lba, false)
	return e.cfg.RevokeTimeout + replicaLat, RouteHedged
}
