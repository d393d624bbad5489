package linnos

import (
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/storage"
	"guardrails/internal/trace"
)

// testArray builds a two-replica array with write-pressure GC.
func testArray(t *testing.T, seed int64) *storage.Array {
	t.Helper()
	mk := func(name string, s int64) *storage.Device {
		cfg := storage.DefaultDeviceConfig(name, s)
		cfg.BackgroundGCRate = 0.5
		d, err := storage.NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	arr, err := storage.NewArray(mk("primary", seed), mk("replica", seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func calmWorkload(seed int64) *MixedWorkload {
	keys := trace.NewZipfKeys(trace.Split(seed, "keys"), 1<<16, 1.2, true)
	return NewMixedWorkload(seed, 20000, 0.05, keys)
}

func TestFeaturesShapeAndScaling(t *testing.T) {
	arr := testArray(t, 1)
	d := arr.Replica(0)
	f := Features(d, 0)
	if len(f) != NumFeatures {
		t.Fatalf("features = %d, want %d", len(f), NumFeatures)
	}
	for i, v := range f {
		if v != 0 {
			t.Errorf("fresh device feature %d = %v", i, v)
		}
	}
	// After a slow access the latency features are non-zero and clipped.
	for i := 0; i < 70; i++ {
		d.Submit(0, 0, true) // hammer one chip into GC
	}
	d.Submit(0, 0, false)
	f = Features(d, 0)
	if f[1] == 0 {
		t.Error("recent latency feature not populated")
	}
	for _, v := range f {
		if v < 0 || v > 4 {
			t.Errorf("feature out of [0,4]: %v", v)
		}
	}
}

func TestClassifierTrainsOnCalmWorkload(t *testing.T) {
	arr := testArray(t, 10)
	wl := calmWorkload(11)
	c, samples, err := TrainedClassifier(arr, wl, 40000, kernel.Millisecond, 12, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 30000 {
		t.Fatalf("samples = %d", len(samples))
	}
	var trueSlow, predictedFast, falseFast int
	for _, s := range samples {
		switch pred := c.PredictSlow(s.Features); {
		case pred && s.Slow:
			trueSlow++
		case !pred:
			predictedFast++
			if s.Slow {
				falseFast++
			}
		}
	}
	if trueSlow == 0 {
		t.Error("model never predicts slow correctly")
	}
	// The false-submit rate is the quantity the paper's guardrail bounds.
	if rate := float64(falseFast) / float64(predictedFast); rate > 0.05 {
		t.Errorf("in-distribution false submit rate = %v", rate)
	}
}

func TestClassifierTrainValidation(t *testing.T) {
	c := NewClassifier(1)
	if _, err := c.Train(nil); err == nil {
		t.Error("empty training set should error")
	}
	oneClass := []Sample{{Features: make([]float64, NumFeatures), Slow: false}}
	if _, err := c.Train(oneClass); err == nil {
		t.Error("single-class set should error")
	}
	badWidth := []Sample{
		{Features: []float64{1}, Slow: false},
		{Features: []float64{1}, Slow: true},
	}
	if _, err := c.Train(badWidth); err == nil {
		t.Error("bad feature width should error")
	}
}

func TestQuantizedClassifierAgrees(t *testing.T) {
	arr := testArray(t, 20)
	wl := calmWorkload(21)
	c, samples, err := TrainedClassifier(arr, wl, 30000, kernel.Millisecond, 22, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if c.useQ {
		t.Fatal("quantization should be off by default")
	}
	floatPreds := make([]bool, 0, 2000)
	for i := 0; i < 2000 && i < len(samples); i++ {
		floatPreds = append(floatPreds, c.PredictSlow(samples[i].Features))
	}
	if err := c.EnableQuantized(); err != nil {
		t.Fatal(err)
	}
	if !c.useQ {
		t.Fatal("quantization flag not set")
	}
	agree := 0
	for i := range floatPreds {
		if c.PredictSlow(samples[i].Features) == floatPreds[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(floatPreds)); frac < 0.97 {
		t.Errorf("quantized agreement = %v", frac)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	arr := testArray(t, 30)
	k := kernel.New()
	st := featurestore.New()
	bad := []Config{
		{SlowThreshold: 0, RevokeTimeout: 1, RateWindow: 1, MAWindow: 1},
		{SlowThreshold: 1, RevokeTimeout: 0, RateWindow: 1, MAWindow: 1},
		{SlowThreshold: 1, RevokeTimeout: 1, RateWindow: 0, MAWindow: 1},
		{SlowThreshold: 1, RevokeTimeout: 1, RateWindow: 1, MAWindow: 0},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(k, st, arr, nil, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestBaselineHedgesSlowReads(t *testing.T) {
	arr := testArray(t, 40)
	k := kernel.New()
	st := featurestore.New()
	e, err := NewEngine(k, st, arr, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.MLEnabled() {
		t.Error("no-model engine claims ML")
	}
	// Force GC on chip 0 of the primary, then read it.
	for i := 0; i < 70; i++ {
		arr.Replica(0).Submit(0, 0, true)
	}
	// Read while the write queue + GC still back the chip up.
	lat, route := e.Read(5*kernel.Millisecond, 0)
	if route != RouteHedged {
		t.Fatalf("route = %v, want hedged", route)
	}
	// Hedged latency is bounded: timeout + replica service (+ jitter),
	// far below the primary's multi-ms backlog.
	if lat > 2*kernel.Millisecond {
		t.Errorf("hedged latency = %v, want bounded", lat)
	}
	// A fast read takes the primary.
	_, route = e.Read(100*kernel.Millisecond, 12345)
	if route != RoutePrimary {
		t.Errorf("fast read route = %v", route)
	}
}

// countingPredictor counts the inferences the engine asks of a model.
type countingPredictor struct {
	Predictor
	calls int
}

func (c *countingPredictor) PredictSlow(f []float64) bool {
	c.calls++
	return c.Predictor.PredictSlow(f)
}

func TestMLEnabledKnobSwitchesPath(t *testing.T) {
	arr := testArray(t, 50)
	k := kernel.New()
	st := featurestore.New()
	wl := calmWorkload(51)
	scratch := testArray(t, 52)
	model, _, err := TrainedClassifier(scratch, wl, 30000, kernel.Millisecond, 53, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pred := &countingPredictor{Predictor: model}
	e, err := NewEngine(k, st, arr, pred, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !e.MLEnabled() {
		t.Fatal("model engine should start ML-enabled")
	}
	e.Read(0, 1)
	routed := pred.calls
	if routed == 0 {
		t.Error("read not ML-routed")
	}
	st.Save(KeyMLEnabled, 0)
	if e.MLEnabled() {
		t.Error("knob did not disable ML")
	}
	e.Read(kernel.Millisecond, 2)
	if pred.calls != routed {
		t.Error("disabled ML still routed")
	}
	if e.Stats().Reads != 2 {
		t.Errorf("reads = %d", e.Stats().Reads)
	}
}

func TestEnginePublishesStoreKeysAndHook(t *testing.T) {
	arr := testArray(t, 60)
	k := kernel.New()
	st := featurestore.New()
	e, err := NewEngine(k, st, arr, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hookLats []float64
	k.Attach(HookIOComplete, func(_ *kernel.Kernel, _ string, args []float64) {
		hookLats = append(hookLats, args[0])
	})
	e.Read(0, 1)
	e.Read(kernel.Millisecond, 2)
	if len(hookLats) != 2 {
		t.Fatalf("hook fired %d times", len(hookLats))
	}
	if st.Load(KeyLatencyMA) == 0 {
		t.Error("latency MA not published")
	}
}

func TestDistributionShiftRaisesFalseSubmits(t *testing.T) {
	// The heart of Figure 2: train on a calm phase, then shift to a
	// write-heavy phase and watch the false-submit rate cross the 5%
	// guardrail threshold.
	scratch := testArray(t, 70)
	trainWL := calmWorkload(71)
	model, _, err := TrainedClassifier(scratch, trainWL, 40000, kernel.Millisecond, 72, 0.82)
	if err != nil {
		t.Fatal(err)
	}

	arr := testArray(t, 73)
	k := kernel.New()
	st := featurestore.New()
	e, err := NewEngine(k, st, arr, model, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Calm phase on the live array.
	wl := calmWorkload(74)
	for i := 0; i < 30000; i++ {
		op := wl.Next()
		if op.Write {
			e.Write(op.At, op.LBA)
		} else {
			e.Read(op.At, op.LBA)
		}
	}
	calmRate := st.Load(KeyFalseSubmitRate)
	if calmRate > 0.05 {
		t.Fatalf("calm-phase false submit rate = %v, want <= 0.05", calmRate)
	}

	// Shift: write-heavy, bursty queues the model never saw.
	wl.SetWriteFraction(0.4)
	for i := 0; i < 30000; i++ {
		op := wl.Next()
		if op.Write {
			e.Write(op.At, op.LBA)
		} else {
			e.Read(op.At, op.LBA)
		}
	}
	shiftRate := st.Load(KeyFalseSubmitRate)
	if shiftRate <= 0.05 {
		t.Errorf("post-shift false submit rate = %v, want > 0.05 (calm was %v)", shiftRate, calmRate)
	}
	if shiftRate <= calmRate {
		t.Errorf("shift did not raise the rate: %v -> %v", calmRate, shiftRate)
	}
}

func TestRouteString(t *testing.T) {
	if RoutePrimary.String() != "primary" || RouteFailover.String() != "failover" || RouteHedged.String() != "hedged" {
		t.Error("route names wrong")
	}
}

func TestWorkloadValidationAndShift(t *testing.T) {
	keys := trace.NewUniformKeys(1, 100)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero-rate", func() { NewMixedWorkload(1, 0, 0.1, keys) })
	mustPanic("bad-frac", func() { NewMixedWorkload(1, 100, 1.0, keys) })
	w := NewMixedWorkload(1, 1000, 0.1, keys)
	mustPanic("set-bad-frac", func() { w.SetWriteFraction(-0.1) })

	prev := kernel.Time(0)
	writes := 0
	for i := 0; i < 1000; i++ {
		op := w.Next()
		if op.At <= prev {
			t.Fatal("ops must be strictly ordered")
		}
		prev = op.At
		if op.Write {
			writes++
		}
		if op.LBA >= 100 {
			t.Fatal("key out of universe")
		}
	}
	if writes < 50 || writes > 200 {
		t.Errorf("writes = %d, want ~100", writes)
	}
	if w.Now() != prev {
		t.Error("Now() mismatch")
	}
}
