package actions

import (
	"fmt"
	"sync"

	"guardrails/internal/kernel"
)

// RetrainRequest is a queued retraining job (A3).
type RetrainRequest struct {
	Model string
}

// TrainFunc performs the (offline, asynchronous in the paper's design)
// retraining of a named model. It is supplied by the subsystem that owns
// the model.
type TrainFunc func(model string) error

// Retrainer implements RETRAIN (A3): violations enqueue retraining
// requests; a token bucket bounds how often any model may be retrained
// so that adversarial workloads cannot weaponize the action (§3.2).
// Requests for a model already queued are deduplicated. Safe for
// concurrent use.
type Retrainer struct {
	mu sync.Mutex
	// token bucket
	capacity float64
	tokens   float64
	refill   float64 // tokens per simulated second
	lastFill kernel.Time

	queue  []RetrainRequest
	queued map[string]bool
}

// NewRetrainer returns a retrainer whose token bucket holds capacity
// tokens and refills at refillPerSec tokens per simulated second. Each
// accepted request costs one token.
func NewRetrainer(capacity float64, refillPerSec float64) *Retrainer {
	if capacity <= 0 || refillPerSec < 0 {
		panic("actions: invalid retrainer rate limits")
	}
	return &Retrainer{
		capacity: capacity,
		tokens:   capacity,
		refill:   refillPerSec,
		queued:   make(map[string]bool),
	}
}

// Request enqueues retraining of model at simulated time now. It returns
// true if the request was accepted (or already queued) and false if the
// rate limit rejected it.
func (r *Retrainer) Request(model string, now kernel.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.queued[model] {
		return true // collapses into the pending request
	}
	r.refillLocked(now)
	if r.tokens < 1 {
		return false
	}
	r.tokens--
	r.queued[model] = true
	r.queue = append(r.queue, RetrainRequest{Model: model})
	return true
}

func (r *Retrainer) refillLocked(now kernel.Time) {
	if now <= r.lastFill {
		return
	}
	dt := float64(now-r.lastFill) / float64(kernel.Second)
	r.tokens += dt * r.refill
	if r.tokens > r.capacity {
		r.tokens = r.capacity
	}
	r.lastFill = now
}

// Pending returns the queued requests in FIFO order.
func (r *Retrainer) Pending() []RetrainRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RetrainRequest(nil), r.queue...)
}

// RunPending drains the queue, invoking train for each request (the
// asynchronous training pass). It returns the number of successful jobs
// and the first error encountered; on error the failed request is
// dropped and draining continues.
func (r *Retrainer) RunPending(train TrainFunc) (int, error) {
	r.mu.Lock()
	jobs := r.queue
	r.queue = nil
	for _, j := range jobs {
		delete(r.queued, j.Model)
	}
	r.mu.Unlock()

	done := 0
	var firstErr error
	for _, j := range jobs {
		if err := train(j.Model); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("actions: retrain %q: %w", j.Model, err)
			}
			continue
		}
		done++
	}
	return done, firstErr
}
