package actions

import (
	"errors"
	"testing"

	"guardrails/internal/kernel"
)

// Edge cases for the RETRAIN token bucket: clamping, starvation,
// dedup accounting, fractional refill, non-monotonic clocks, and the
// queued-flag lifecycle around TrainFunc failures.

func TestRetrainerRefillClampsAtCapacity(t *testing.T) {
	// Capacity 2, refill 1 token/s. An hour of idle time must not bank
	// 3600 tokens.
	r := NewRetrainer(2, 1)
	if !r.Request("m1", 0) || !r.Request("m2", 0) {
		t.Fatal("initial bucket should hold 2 tokens")
	}
	if _, err := r.RunPending(func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	now := kernel.Time(3600) * kernel.Second
	for i, m := range []string{"a", "b"} {
		if !r.Request(m, now) {
			t.Fatalf("request %d after long idle rejected", i)
		}
	}
	// Third request at the same instant: the bucket was clamped to
	// capacity 2, so it must be empty now.
	if r.Request("c", now) {
		t.Error("bucket exceeded capacity after long idle")
	}
}

func TestRetrainerZeroRefillStarvation(t *testing.T) {
	// refill = 0 is legal: a fixed budget of retrains for the whole run.
	// Once spent, every later request is rejected no matter how much
	// simulated time passes.
	r := NewRetrainer(1, 0)
	if !r.Request("m1", 0) {
		t.Fatal("budgeted request rejected")
	}
	if _, err := r.RunPending(func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, now := range []kernel.Time{0, kernel.Second, kernel.Time(24) * 3600 * kernel.Second} {
		if r.Request("m2", now) {
			t.Fatalf("zero-refill bucket granted a token at %v", now)
		}
	}
}

func TestRetrainerDedupDoesNotConsumeTokens(t *testing.T) {
	r := NewRetrainer(2, 0)
	if !r.Request("m1", 0) {
		t.Fatal("first request rejected")
	}
	// Hammer the queued model: every duplicate collapses into the
	// pending request without touching the bucket.
	for i := 0; i < 50; i++ {
		if !r.Request("m1", 0) {
			t.Fatal("duplicate of queued model rejected")
		}
	}
	// The second token is still there for a different model.
	if !r.Request("m2", 0) {
		t.Error("duplicates drained the bucket")
	}
	if got := len(r.Pending()); got != 2 {
		t.Errorf("pending = %d, want 2", got)
	}
}

func TestRetrainerFractionalRefillAccumulates(t *testing.T) {
	// 0.5 tokens/s: one second is not enough for a token, two is.
	r := NewRetrainer(1, 0.5)
	if !r.Request("m1", 0) {
		t.Fatal("initial request rejected")
	}
	if _, err := r.RunPending(func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if r.Request("m2", kernel.Second) {
		t.Error("half a token granted a request")
	}
	if !r.Request("m2", 2*kernel.Second) {
		t.Error("full token after 2s rejected")
	}
}

func TestRetrainerClockNeverRunsBackward(t *testing.T) {
	// A request stamped earlier than the last refill must not refill
	// (or worse, drain) the bucket: dt would be negative.
	r := NewRetrainer(1, 1)
	if !r.Request("m1", 10*kernel.Second) {
		t.Fatal("first request rejected")
	}
	if _, err := r.RunPending(func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Bucket empty, lastFill = 10s. An out-of-order request at 5s sees
	// no refill.
	if r.Request("m2", 5*kernel.Second) {
		t.Error("out-of-order timestamp refilled the bucket")
	}
	// Time catching back up past lastFill refills normally.
	if !r.Request("m2", 11*kernel.Second) {
		t.Error("request after real refill rejected")
	}
}

func TestRetrainerTrainErrorClearsQueuedFlag(t *testing.T) {
	// A failed TrainFunc must not count as trained, and must not wedge
	// the model: it was dequeued, so it can be requested again.
	r := NewRetrainer(10, 0)
	r.Request("flaky", 0)
	sentinel := errors.New("training data unavailable")
	n, err := r.RunPending(func(string) error { return sentinel })
	if n != 0 || !errors.Is(err, sentinel) {
		t.Fatalf("run = %d, %v; want 0 jobs and the sentinel", n, err)
	}
	if len(r.Pending()) != 0 {
		t.Error("failed job left in queue")
	}
	// Re-queue and succeed this time.
	if !r.Request("flaky", 0) {
		t.Fatal("failed model is wedged: re-request rejected")
	}
	n, err = r.RunPending(func(string) error { return nil })
	if n != 1 || err != nil {
		t.Fatalf("retry run = %d, %v", n, err)
	}
}
