package kernel

import (
	"fmt"
	"sync"
)

// DefaultQuantum is the barrier interval a Pool uses when none is
// given: shards run independently for one simulated millisecond, then
// synchronize.
const DefaultQuantum = Millisecond

// Pool is a sharded multi-core kernel: N independent Kernel shards,
// each with its own clock, event heap, and hook table, advanced in
// lockstep epochs by a cross-shard barrier.
//
// Between barriers every shard runs its own event loop on its own
// goroutine, touching only shard-local state (its kernel, its feature
// store cell, its monitor runtime, its telemetry lane) — the simulated
// analogue of per-CPU eBPF program instances over per-CPU maps. At each
// barrier all shards are parked at the same simulated instant and the
// registered barrier callbacks run on the driver goroutine: epoch-based
// feature aggregation, and any other operation that needs a
// deterministic global time.
//
// Determinism: each shard's event order is fully determined by its own
// heap (time, then schedule order), and cross-shard effects happen only
// at barriers, in registration order — so a K-shard run with a fixed
// seed replays the same per-shard event order every time, and a 1-shard
// Pool is event-for-event identical to driving a single Kernel.
type Pool struct {
	shards  []*Kernel
	quantum Time

	now   atomicTime
	epoch atomicEpoch

	mu       sync.Mutex
	barriers []func(now Time, epoch uint64) // in registration order
}

// atomicTime / atomicEpoch are tiny named wrappers so the Pool's fields
// read as what they are.
type (
	atomicTime  struct{ v int64 }
	atomicEpoch struct{ v uint64 }
)

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
	p := &Pool{quantum: quantum}
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
	return p.epoch.v
}

// OnBarrier registers fn to run at every barrier, after all shards have
// parked at the barrier time. Callbacks run on the driver goroutine in
// registration order; they may touch any shard's state (no shard events
// execute concurrently with them). The feature store's epoch aggregator
// registers here.
func (p *Pool) OnBarrier(fn func(now Time, epoch uint64)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.barriers = append(p.barriers, fn)
}

// RunUntil advances every shard to deadline, epoch by epoch: each epoch
// runs all shards concurrently to the epoch's barrier time, waits for
// them to park, then runs the barrier callbacks. It returns the total
// number of shard events executed. All shard clocks finish at deadline.
func (p *Pool) RunUntil(deadline Time) int {
	total := 0
	for {
		p.mu.Lock()
		now := Time(p.now.v)
		p.mu.Unlock()
		if now >= deadline {
			return total
		}
		next := now + p.quantum
		if next > deadline {
			next = deadline
		}
		if len(p.shards) == 1 {
			total += p.shards[0].RunUntil(next)
		} else {
			counts := make([]int, len(p.shards))
			var wg sync.WaitGroup
			for i, sh := range p.shards {
				wg.Add(1)
				go func(i int, sh *Kernel) {
					defer wg.Done()
					counts[i] = sh.RunUntil(next)
				}(i, sh)
			}
			wg.Wait()
			for _, c := range counts {
				total += c
			}
		}
		p.barrier(next)
	}
}

// barrier advances the global clock and epoch and runs the callbacks.
// All shards are parked when it is called.
func (p *Pool) barrier(now Time) {
	p.mu.Lock()
	p.now.v = int64(now)
	p.epoch.v++
	epoch := p.epoch.v
	recurring := p.barriers
	p.mu.Unlock()
	for _, fn := range recurring {
		fn(now, epoch)
	}
}
