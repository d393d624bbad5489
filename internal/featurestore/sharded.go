package featurestore

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// AggOp combines per-shard contributions into one global value.
type AggOp int

// Aggregation operators. AggLast is deliberately absent: "last writer
// across shards" has no deterministic meaning when shards run
// concurrently.
const (
	// AggSum publishes the sum of the shard contributions.
	AggSum AggOp = iota
	// AggMax publishes the maximum contribution.
	AggMax
	// AggMin publishes the minimum contribution.
	AggMin
	// AggMean publishes the arithmetic mean of the contributions.
	AggMean
)

// String names the operator.
func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggMean:
		return "mean"
	default:
		return fmt.Sprintf("aggop(%d)", int(op))
	}
}

// GlobalKey derives the key a shard LOADs to read the cross-shard
// aggregate of name. Keeping the contribution key (what each shard
// SAVEs) and the global key (what the aggregator publishes) distinct is
// what lets AggSum work: if the broadcast landed in the contribution
// cell, next epoch's sum would count the previous aggregate N times.
// The suffix is underscore-joined so the derived key stays a legal
// guardrail-spec identifier: a monitor can write LOAD(err_rate_global)
// directly.
func GlobalKey(name string) string { return name + "_global" }

// EpochKey is the per-shard cell the aggregator stamps with the epoch
// number at every barrier. A guardrail that LOADs both a global key and
// EpochKey in one evaluation always sees a consistent pair: broadcasts
// happen only while every shard is parked at the barrier. Like
// GlobalKey it is a legal spec identifier, so rules can gate on
// LOAD(fs_epoch) > 0 to skip evaluations before the first aggregate.
const EpochKey = "fs_epoch"

// IsGlobalKey reports whether key names a cross-shard aggregate read —
// a GlobalKey-derived cell or the EpochKey stamp. The provenance plane
// uses it to mark feature reads that are barrier-epoch snapshots
// rather than per-shard state.
func IsGlobalKey(key string) bool {
	return key == EpochKey || strings.HasSuffix(key, "_global")
}

// aggregate is one registered cross-shard aggregation.
type aggregate struct {
	global string // published key, LOADed per shard
	op     AggOp
	src    []ID // per-shard contribution cell
	dst    []ID // per-shard published cell
}

// Sharded splits the feature store into per-shard cells with
// epoch-based cross-shard aggregation — the paper's global SAVE/LOAD
// surface scaled out the way eBPF scales maps: writes go to per-CPU
// (here per-shard) slots on a lock-free path, and a periodic aggregation
// step folds them into a globally consistent snapshot.
//
// Each shard owns a full *Store; monitors pinned to shard i intern,
// SAVE, and LOAD against Shard(i) exactly as they would against a
// single store, keeping the fire path lock-free on the shard's own
// goroutine. Keys registered with RegisterAggregate additionally get a
// derived global key per shard: at every Aggregate call (wired to the
// kernel Pool's barrier) the shard contributions under the plain key
// are op-combined and the result is broadcast into every shard's
// global-key cell, along with the epoch number under EpochKey. Because
// Aggregate runs only while all shards are parked at a barrier, shard
// reads of global cells are never concurrent with the broadcast: LOADs
// of globally-aggregated keys see a consistent, at-most-one-epoch-stale
// snapshot without taking any lock on the fire path.
type Sharded struct {
	shards []*Store

	mu     sync.Mutex
	aggs   []aggregate
	byName map[string]int // contribution key → index into aggs
	epoch  []ID           // per-shard EpochKey cell

	count atomic.Uint64
}

// NewSharded returns a sharded store with n independent shard cells
// (n >= 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		panic(fmt.Sprintf("featurestore: sharded store needs at least one shard, got %d", n))
	}
	s := &Sharded{byName: make(map[string]int)}
	for i := 0; i < n; i++ {
		sh := New()
		s.shards = append(s.shards, sh)
		s.epoch = append(s.epoch, sh.Intern(EpochKey))
	}
	return s
}

// Shard returns shard i's store.
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// RegisterAggregate arms epoch aggregation for name: every shard's
// contribution under name is op-combined at each Aggregate call and
// broadcast to every shard under the returned global key
// (GlobalKey(name)). Registering the same key twice returns the
// existing registration (the first operator wins). Registration is a
// load-time operation; it interns cells on every shard.
func (s *Sharded) RegisterAggregate(name string, op AggOp) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byName[name]; ok {
		return s.aggs[i].global
	}
	a := aggregate{global: GlobalKey(name), op: op}
	for _, sh := range s.shards {
		a.src = append(a.src, sh.Intern(name))
		a.dst = append(a.dst, sh.Intern(a.global))
	}
	s.byName[name] = len(s.aggs)
	s.aggs = append(s.aggs, a)
	return a.global
}

// combine folds the shard contributions under op.
func combine(op AggOp, vals []float64) float64 {
	switch op {
	case AggSum, AggMean:
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if op == AggMean {
			return sum / float64(len(vals))
		}
		return sum
	case AggMax:
		out := math.Inf(-1)
		for _, v := range vals {
			if v > out {
				out = v
			}
		}
		return out
	case AggMin:
		out := math.Inf(1)
		for _, v := range vals {
			if v < out {
				out = v
			}
		}
		return out
	default:
		return 0
	}
}

// Aggregate runs one epoch: it reads every registered key's per-shard
// contributions, op-combines them, broadcasts the results (and the new
// epoch number under EpochKey) into every shard. It returns the new
// epoch number.
//
// Call it from the kernel Pool's barrier (all shards parked) for the
// consistency guarantee monitors rely on; calling it concurrently with
// running shards is memory-safe (cells are atomics) but a monitor might
// then read adjacent global keys from two different epochs.
func (s *Sharded) Aggregate() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.count.Add(1)
	vals := make([]float64, len(s.shards))
	for i := range s.aggs {
		a := &s.aggs[i]
		for si, sh := range s.shards {
			// Raw cell read: plane maintenance must not count as
			// feature-store LOAD traffic (mirrors PublishID).
			if c := sh.cellAt(a.src[si]); c != nil {
				vals[si] = math.Float64frombits(c.bits.Load())
			} else {
				vals[si] = 0
			}
		}
		v := combine(a.op, vals)
		for si, sh := range s.shards {
			sh.PublishID(a.dst[si], v)
		}
	}
	for si, sh := range s.shards {
		sh.PublishID(s.epoch[si], float64(epoch))
	}
	return epoch
}
