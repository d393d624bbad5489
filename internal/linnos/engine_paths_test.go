package linnos

import (
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/storage"
)

// stubPredictor returns scripted predictions in order, then repeats the
// last one, and counts the inferences asked of it.
type stubPredictor struct {
	answers []bool
	i       int
	calls   int
}

func (s *stubPredictor) PredictSlow([]float64) bool {
	s.calls++
	if s.i < len(s.answers) {
		v := s.answers[s.i]
		s.i++
		return v
	}
	if len(s.answers) == 0 {
		return false
	}
	return s.answers[len(s.answers)-1]
}

func pathEngine(t *testing.T, pred Predictor, cfg Config) (*Engine, *storage.Array, *featurestore.Store) {
	t.Helper()
	arr := testArray(t, 400)
	k := kernel.New()
	st := featurestore.New()
	e, err := NewEngine(k, st, arr, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, arr, st
}

// congest floods chip 0 of the device with writes so the next read on
// lba 0 is slow.
func congest(d *storage.Device) {
	for i := 0; i < 70; i++ {
		d.Submit(0, 0, true)
	}
}

func TestMLPredictedFastStaysOnPrimary(t *testing.T) {
	pred := &stubPredictor{answers: []bool{false}}
	e, _, st := pathEngine(t, pred, DefaultConfig())
	lat, route := e.Read(0, 1)
	if route != RoutePrimary {
		t.Fatalf("route = %v", route)
	}
	// Fast read + one inference cost.
	if lat > 200*kernel.Microsecond {
		t.Errorf("latency = %v", lat)
	}
	if pred.calls != 1 || st.Load(KeyFalseSubmitRate) != 0 {
		t.Errorf("inferences = %d, false-submit rate = %v", pred.calls, st.Load(KeyFalseSubmitRate))
	}
}

func TestMLPredictedSlowFailsOverWhenReplicaFast(t *testing.T) {
	pred := &stubPredictor{answers: []bool{true, false}}
	e, arr, st := pathEngine(t, pred, DefaultConfig())
	congest(arr.Replica(0))
	lat, route := e.Read(5*kernel.Millisecond, 0)
	if route != RouteFailover {
		t.Fatalf("route = %v", route)
	}
	// Served from the healthy replica: fast plus two inferences.
	if lat > 500*kernel.Microsecond {
		t.Errorf("failover latency = %v", lat)
	}
	if pred.calls != 2 {
		t.Errorf("inferences = %d, want 2", pred.calls)
	}
	// Predicted-slow reads never count as false submits.
	if st.Load(KeyFalseSubmitRate) != 0 {
		t.Errorf("false-submit rate = %v", st.Load(KeyFalseSubmitRate))
	}
}

func TestMLBothSlowWaitsOnPrimary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLSafetyTimeout = 0
	e, arr, st := pathEngine(t, &stubPredictor{answers: []bool{true, true}}, cfg)
	congest(arr.Replica(0))
	lat, route := e.Read(5*kernel.Millisecond, 0)
	if route != RoutePrimary {
		t.Fatalf("route = %v", route)
	}
	if lat < kernel.Millisecond {
		t.Errorf("both-slow read should wait out the backlog, got %v", lat)
	}
	// Not a false submit: the model said slow.
	if st.Load(KeyFalseSubmitRate) != 0 {
		t.Errorf("false-submit rate = %v", st.Load(KeyFalseSubmitRate))
	}
}

func TestMLFalseSubmitCountsAndHedges(t *testing.T) {
	// Model says fast, chip is congested: with the safety backstop on,
	// the read is revoked at MLSafetyTimeout and finished on the replica.
	cfg := DefaultConfig()
	cfg.MLSafetyTimeout = 2 * kernel.Millisecond
	e, arr, st := pathEngine(t, &stubPredictor{answers: []bool{false}}, cfg)
	congest(arr.Replica(0))
	lat, route := e.Read(5*kernel.Millisecond, 0)
	if route != RoutePrimary {
		t.Fatalf("route = %v", route)
	}
	// Bounded by the fuse plus a replica read, far below the backlog:
	// the read was hedged.
	if lat > 4*kernel.Millisecond {
		t.Errorf("hedged false submit latency = %v", lat)
	}
	if st.Load(KeyFalseSubmitRate) != 1 {
		t.Errorf("published rate = %v", st.Load(KeyFalseSubmitRate))
	}
}

func TestMLFalseSubmitUnhedgedEatsFullExposure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLSafetyTimeout = 0
	e, arr, _ := pathEngine(t, &stubPredictor{answers: []bool{false}}, cfg)
	congest(arr.Replica(0))
	lat, _ := e.Read(5*kernel.Millisecond, 0)
	if lat < 4*kernel.Millisecond {
		t.Errorf("unhedged false submit should eat the backlog, got %v", lat)
	}
}
