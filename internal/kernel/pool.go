package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultQuantum is the barrier interval a Pool uses when none is
// given: shards run independently for one simulated millisecond, then
// synchronize.
const DefaultQuantum = Millisecond

// Pool is a sharded multi-core kernel: N independent Kernel shards,
// each with its own clock, event heap, and hook table, advanced in
// lockstep epochs by a cross-shard barrier.
//
// Between barriers every shard runs its own event loop, touching only
// shard-local state (its kernel, its feature store cell, its monitor
// runtime, its telemetry lane) — the simulated analogue of per-CPU eBPF
// program instances over per-CPU maps. Shard 0 runs on the goroutine
// that calls RunUntil; each other shard runs on a worker goroutine that
// RunUntil starts and that exits before it returns. At each barrier all
// shards are parked at the same simulated instant and the registered
// barrier callbacks run on the calling goroutine: epoch-based feature
// aggregation, and any other operation that needs a deterministic
// global time.
//
// Determinism: each shard's event order is fully determined by its own
// heap (time, then schedule order), and cross-shard effects happen only
// at barriers, in registration order — so a K-shard run with a fixed
// seed replays the same per-shard event order every time, and a 1-shard
// Pool is event-for-event identical to driving a single Kernel.
type Pool struct {
	shards  []*Kernel
	quantum Time

	mu       sync.Mutex // guards now, epoch and barriers
	now      Time
	epoch    uint64
	barriers []func(now Time, epoch uint64) // in registration order

	// The epoch handshake of a multi-shard RunUntil: the caller
	// publishes each barrier time in target, and the worker that runs
	// shard i+1 counts the epochs it has finished in workers[i].
	_       [cacheLine]byte
	target  atomic.Int64
	_       [cacheLine]byte
	workers []worker
	wg      sync.WaitGroup
}

// worker is one worker goroutine's report to the caller, alone on its
// cache lines so the caller's polling does not slow another worker.
type worker struct {
	_      [cacheLine]byte
	done   atomic.Uint64 // epochs finished in this RunUntil call
	events int           // events run in this call; read once done is seen
	_      [cacheLine]byte
}

// stopTarget, published in target, tells the workers to exit. Barrier
// times are never negative.
const stopTarget = -1

// NewPool returns a pool of n shards (n >= 1) with barrier interval
// quantum (<= 0 selects DefaultQuantum). All shards start at time zero
// on deployment generation 1.
func NewPool(n int, quantum Time) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("kernel: pool needs at least one shard, got %d", n))
	}
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	p := &Pool{quantum: quantum, workers: make([]worker, n-1)}
	for i := 0; i < n; i++ {
		p.shards = append(p.shards, New())
	}
	return p
}

// Shard returns shard i's kernel.
func (p *Pool) Shard(i int) *Kernel { return p.shards[i] }

// Epoch returns how many barriers have completed.
func (p *Pool) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// OnBarrier registers fn to run at every barrier, after all shards have
// parked at the barrier time. Callbacks run on the goroutine calling
// RunUntil, in registration order; they may touch any shard's state (no
// shard events execute concurrently with them). The feature store's
// epoch aggregator registers here.
func (p *Pool) OnBarrier(fn func(now Time, epoch uint64)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.barriers = append(p.barriers, fn)
}

// RunUntil advances every shard to deadline, epoch by epoch: each epoch
// runs all shards concurrently to the epoch's barrier time, waits for
// them to park, then runs the barrier callbacks. It returns the total
// number of shard events executed. All shard clocks finish at deadline.
//
// The caller runs shard 0 itself; the other shards' workers start once
// per call, not once per epoch, and both sides wait by polling with
// runtime.Gosched, so an epoch allocates nothing and hands no goroutine
// to the scheduler. The workers have exited when RunUntil returns, even
// when a barrier callback or a shard-0 event panics. Call RunUntil from
// one goroutine at a time, and never from a barrier callback or a shard
// event.
func (p *Pool) RunUntil(deadline Time) int {
	p.mu.Lock()
	now := p.now
	p.mu.Unlock()
	if now >= deadline {
		return 0
	}
	if len(p.workers) > 0 {
		p.target.Store(int64(now))
		p.wg.Add(len(p.workers))
		for i := range p.workers {
			p.workers[i].done.Store(0)
			p.workers[i].events = 0
			go p.work(i, now)
		}
		defer func() {
			p.target.Store(stopTarget)
			p.wg.Wait()
		}()
	}
	total := 0
	for epoch := uint64(1); now < deadline; epoch++ {
		now = min(now+p.quantum, deadline)
		p.target.Store(int64(now))
		total += p.shards[0].RunUntil(now)
		for i := range p.workers {
			for p.workers[i].done.Load() < epoch {
				runtime.Gosched()
			}
		}
		p.barrier(now)
	}
	for i := range p.workers {
		total += p.workers[i].events
	}
	return total
}

// work runs shard i+1 to each barrier time the caller publishes, until
// it publishes stopTarget. last is the time the shard starts at.
func (p *Pool) work(i int, last Time) {
	defer p.wg.Done()
	w, sh := &p.workers[i], p.shards[i+1]
	for epoch := uint64(1); ; epoch++ {
		t := Time(p.target.Load())
		for t == last {
			runtime.Gosched()
			t = Time(p.target.Load())
		}
		if t == stopTarget {
			return
		}
		w.events += sh.RunUntil(t)
		w.done.Store(epoch)
		last = t
	}
}

// barrier advances the global clock and epoch and runs the callbacks.
// All shards are parked when it is called.
func (p *Pool) barrier(now Time) {
	p.mu.Lock()
	p.now = now
	p.epoch++
	epoch := p.epoch
	recurring := p.barriers
	p.mu.Unlock()
	for _, fn := range recurring {
		fn(now, epoch)
	}
}
