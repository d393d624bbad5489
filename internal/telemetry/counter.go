package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the stripe width of a Counter. Power of two so the
// shard index is a mask, not a modulo.
const counterShards = 8

// counterShard is one padded stripe: the padding keeps adjacent shards
// on separate cache lines so concurrent writers do not false-share.
type counterShard struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a sharded, mergeable monotonic counter. Concurrent Adds
// land on (probabilistically) different stripes, so heavily contended
// counters — hook fires under a multi-goroutine stress test — do not
// serialize on one cache line. The zero value is ready to use, and all
// methods are nil-safe: a nil *Counter ignores Add and reads as 0,
// which is what makes a disabled telemetry plane free.
type Counter struct {
	shards [counterShards]counterShard
}

// shardIndex picks a stripe from the address of a stack variable.
// Goroutine stacks are distinct allocations, so two goroutines hammering
// the same counter usually hash to different stripes; within one
// goroutine the index is stable for the life of a stack segment. This
// costs no allocation and no per-goroutine state.
func shardIndex() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 9) & (counterShards - 1))
}

// Add increments the counter by n. Sink.HookFire and Sink.EvalOn call
// it on every observed fire; the atomic add stays until ROADMAP item 2
// makes the planes shard-local.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. Concurrent with writers it is a lower bound
// snapshot, exact once writers quiesce.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}
