package actions

import (
	"errors"
	"strings"
	"testing"

	"guardrails/internal/kernel"
)

func TestReportLogAppendAndRecent(t *testing.T) {
	l := NewReportLog(3)
	if l.Total() != 0 || len(l.Recent(10)) != 0 {
		t.Fatal("fresh log not empty")
	}
	for i := 0; i < 5; i++ {
		l.Append(Violation{Time: kernel.Time(i), Guardrail: "g", Values: []float64{float64(i)}})
	}
	if l.Total() != 5 {
		t.Errorf("total = %d", l.Total())
	}
	recent := l.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("recent = %d entries", len(recent))
	}
	// Oldest first: 2, 3, 4.
	for i, v := range recent {
		if v.Values[0] != float64(i+2) {
			t.Errorf("recent[%d] = %v", i, v.Values)
		}
	}
	two := l.Recent(2)
	if len(two) != 2 || two[0].Values[0] != 3 {
		t.Errorf("recent(2) = %v", two)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Time: 2 * kernel.Second, Guardrail: "low-false-submit",
		Values: []float64{0.12}, Note: "rate spike"}
	s := v.String()
	for _, want := range []string{"low-false-submit", "0.12", "rate spike", "2.000s"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation string %q missing %q", s, want)
		}
	}
}

func TestReportLogCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewReportLog(0)
}

func TestRegistryDefineAndCurrent(t *testing.T) {
	r := NewRegistry()
	err := r.DefineSlot("io_predictor", map[string]any{"learned": 1, "baseline": 2}, "learned")
	if err != nil {
		t.Fatal(err)
	}
	name, val, err := r.Current("io_predictor")
	if err != nil || name != "learned" || val != 1 {
		t.Errorf("current = %q %v %v", name, val, err)
	}
	if _, _, err := r.Current("nope"); err == nil {
		t.Error("unknown slot should error")
	}
	if err := r.DefineSlot("io_predictor", map[string]any{"x": 1}, "x"); err == nil {
		t.Error("duplicate slot should error")
	}
	if err := r.DefineSlot("empty", nil, "x"); err == nil {
		t.Error("empty slot should error")
	}
	if err := r.DefineSlot("bad", map[string]any{"a": 1}, "b"); err == nil {
		t.Error("initial not in policies should error")
	}
}

func TestRegistryReplaceAndHistory(t *testing.T) {
	r := NewRegistry()
	if err := r.DefineSlot("s1", map[string]any{"learned": "L", "fallback": "F"}, "learned"); err != nil {
		t.Fatal(err)
	}
	if err := r.DefineSlot("s2", map[string]any{"learned": "L2", "fallback": "F2"}, "learned"); err != nil {
		t.Fatal(err)
	}
	if err := r.DefineSlot("s3", map[string]any{"other": "O"}, "other"); err != nil {
		t.Fatal(err)
	}
	n, err := r.Replace("learned", "fallback", 100)
	if err != nil || n != 2 {
		t.Fatalf("replace = %d, %v", n, err)
	}
	for _, s := range []string{"s1", "s2"} {
		name, _, _ := r.Current(s)
		if name != "fallback" {
			t.Errorf("%s current = %q", s, name)
		}
	}
	if name, _, _ := r.Current("s3"); name != "other" {
		t.Error("unrelated slot was touched")
	}
	// Idempotent: nothing currently "learned".
	n, err = r.Replace("learned", "fallback", 200)
	if err != nil || n != 0 {
		t.Errorf("second replace = %d, %v", n, err)
	}
	if _, err := r.Replace("x", "x", 0); err == nil {
		t.Error("identical policies should error")
	}
	// Only the swap that happened is in the audit trail.
	h := r.History("s1")
	if len(h) != 1 || h[0].From != "learned" || h[0].To != "fallback" || h[0].Time != 100 {
		t.Errorf("history = %+v", h)
	}
	if r.History("nope") != nil {
		t.Error("unknown slot history should be nil")
	}
}

func TestRetrainerRateLimit(t *testing.T) {
	// Capacity 2, refill 1 token/s.
	r := NewRetrainer(2, 1)
	if !r.Request("m1", 0) {
		t.Fatal("first request rejected")
	}
	if !r.Request("m2", 0) {
		t.Fatal("second request rejected")
	}
	// Bucket empty: new model rejected.
	if r.Request("m3", 0) {
		t.Error("third request should be rate-limited")
	}
	// Duplicate of a queued model is accepted without a token.
	if !r.Request("m1", 0) {
		t.Error("duplicate queued request should collapse, not reject")
	}
	if got := len(r.Pending()); got != 2 {
		t.Errorf("pending = %d", got)
	}
	// After one simulated second, one token refilled.
	if !r.Request("m3", kernel.Second) {
		t.Error("request after refill rejected")
	}
}

func TestRetrainerRunPending(t *testing.T) {
	r := NewRetrainer(10, 0)
	r.Request("a", 0)
	r.Request("b", 0)
	var trained []string
	n, err := r.RunPending(func(m string) error {
		trained = append(trained, m)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("run = %d, %v", n, err)
	}
	if len(trained) != 2 || trained[0] != "a" || trained[1] != "b" {
		t.Errorf("trained = %v", trained)
	}
	if len(r.Pending()) != 0 {
		t.Error("queue not drained")
	}
	// Model can be requested again after training.
	if !r.Request("a", 0) {
		t.Error("re-request after drain rejected")
	}
}

func TestRetrainerRunPendingError(t *testing.T) {
	r := NewRetrainer(10, 0)
	r.Request("good", 0)
	r.Request("bad", 0)
	r.Request("good2", 0)
	sentinel := errors.New("boom")
	n, err := r.RunPending(func(m string) error {
		if m == "bad" {
			return sentinel
		}
		return nil
	})
	if n != 2 {
		t.Errorf("successful jobs = %d", n)
	}
	if err == nil || !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestRetrainerValidation(t *testing.T) {
	for _, c := range []struct{ cap, refill float64 }{{0, 1}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cap=%v refill=%v should panic", c.cap, c.refill)
				}
			}()
			NewRetrainer(c.cap, c.refill)
		}()
	}
}
