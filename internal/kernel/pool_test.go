package kernel

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// loadWorkload schedules a deterministic mix of one-shot events and
// timers on k, appending a record per execution to the returned log.
func loadWorkload(k *Kernel, tag string) *[]string {
	log := &[]string{}
	for i := 0; i < 5; i++ {
		i := i
		k.At(Time(i)*300*Microsecond, func() {
			*log = append(*log, fmt.Sprintf("%s:at%d@%d", tag, i, k.Now()))
		})
	}
	k.Every(100*Microsecond, 250*Microsecond, 2*Millisecond, func(now Time) {
		*log = append(*log, fmt.Sprintf("%s:tick@%d", tag, now))
	})
	// An event that schedules more events, crossing a barrier boundary.
	k.At(900*Microsecond, func() {
		k.After(400*Microsecond, func() {
			*log = append(*log, fmt.Sprintf("%s:chained@%d", tag, k.Now()))
		})
	})
	return log
}

func TestPoolSingleShardMatchesKernel(t *testing.T) {
	solo := New()
	soloLog := loadWorkload(solo, "w")
	solo.RunUntil(3 * Millisecond)

	p := NewPool(1, 0)
	poolLog := loadWorkload(p.Shard(0), "w")
	p.RunUntil(3 * Millisecond)

	if !reflect.DeepEqual(*soloLog, *poolLog) {
		t.Fatalf("1-shard pool diverged from single kernel:\nsolo: %v\npool: %v", *soloLog, *poolLog)
	}
	if got, want := p.Shard(0).Now(), solo.Now(); got != want {
		t.Fatalf("clock mismatch: pool shard at %v, solo at %v", got, want)
	}
}

// TestPoolDeterminism: identical runs replay every shard's event order,
// with 3 and 4 shards, on the machine's cores and on one. With
// GOMAXPROCS=1 a worker or a caller that waits without yielding hangs
// the test.
func TestPoolDeterminism(t *testing.T) {
	run := func(shards int) [][]string {
		p := NewPool(shards, 500*Microsecond)
		logs := make([]*[]string, shards)
		for i := range logs {
			logs[i] = loadWorkload(p.Shard(i), fmt.Sprintf("s%d", i))
		}
		p.RunUntil(3 * Millisecond)
		out := make([][]string, shards)
		for i, l := range logs {
			out[i] = *l
		}
		return out
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		for _, shards := range []int{3, 4} {
			prev := runtime.GOMAXPROCS(procs)
			a, b := run(shards), run(shards)
			runtime.GOMAXPROCS(prev)
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("GOMAXPROCS=%d, %d shards: shard %d event order diverged across identical runs:\n%v\n%v", procs, shards, i, a[i], b[i])
				}
			}
		}
	}
}

// TestPoolAllocatesPerCallNotPerQuantum: a multi-shard RunUntil starts
// its workers once per call, so an idle run over 1 000 quanta allocates
// exactly what a run over 10 does, and every worker has exited once the
// call returns.
func TestPoolAllocatesPerCallNotPerQuantum(t *testing.T) {
	p := NewPool(2, Millisecond)
	var at Time
	allocs := func(quanta Time) float64 {
		return testing.AllocsPerRun(20, func() {
			at += quanta * Millisecond
			p.RunUntil(at)
		})
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Errorf("RunUntil over 10 quanta allocates %v times, over 1000 quanta %v times", few, many)
	}

	base := runtime.NumGoroutine()
	at += 100 * Millisecond
	p.RunUntil(at)
	// A worker's last act is to return; give its goroutine time to go.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after RunUntil returned, %d before", n, base)
	}
}

// BenchmarkPoolQuantum times one quantum of an idle 2-shard pool: the
// barrier handshake and nothing else.
func BenchmarkPoolQuantum(b *testing.B) {
	p := NewPool(2, Millisecond)
	p.RunUntil(Time(b.N) * Millisecond)
}

func TestPoolBarrier(t *testing.T) {
	p := NewPool(3, 500*Microsecond)
	var seq []string
	p.OnBarrier(func(now Time, epoch uint64) {
		for i := 0; i < 3; i++ {
			if sh := p.Shard(i); sh.Now() != now {
				t.Errorf("epoch %d: shard %d clock %v, barrier at %v", epoch, i, sh.Now(), now)
			}
		}
		seq = append(seq, fmt.Sprintf("recur@%d/e%d", now, epoch))
	})
	p.RunUntil(2 * Millisecond)
	want := []string{
		"recur@500000/e1", "recur@1000000/e2", "recur@1500000/e3", "recur@2000000/e4",
	}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("barrier sequence:\ngot  %v\nwant %v", seq, want)
	}
	if p.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", p.Epoch())
	}
	if got := p.Shard(2).Now(); got != 2*Millisecond {
		t.Fatalf("shard clock = %v, want 2ms", got)
	}
}

// TestPoolBarrierHappensBefore drives unsynchronized (non-atomic)
// cross-shard state through the barrier: each shard bumps a plain
// counter from its own events, the barrier sums them and writes a
// broadcast value every shard reads in its next epoch. Run under -race
// this proves the barrier establishes the happens-before edges the
// epoch aggregation plane relies on.
func TestPoolBarrierHappensBefore(t *testing.T) {
	const shards = 4
	p := NewPool(shards, 200*Microsecond)
	local := make([]int, shards)     // written by shard goroutines, read at barrier
	broadcast := make([]int, shards) // written at barrier, read by shard goroutines
	var reads []int
	for i := 0; i < shards; i++ {
		i := i
		p.Shard(i).Every(50*Microsecond, 100*Microsecond, 0, func(now Time) {
			local[i]++
			if i == 0 {
				reads = append(reads, broadcast[0])
			}
		})
	}
	p.OnBarrier(func(now Time, epoch uint64) {
		sum := 0
		for i := range local {
			sum += local[i]
		}
		for i := range broadcast {
			broadcast[i] = sum
		}
	})
	p.RunUntil(2 * Millisecond)
	if local[0] == 0 || len(reads) == 0 {
		t.Fatal("workload did not run")
	}
	// The broadcast is stale by at most one epoch and monotonic.
	for i := 1; i < len(reads); i++ {
		if reads[i] < reads[i-1] {
			t.Fatalf("broadcast went backwards: %v", reads)
		}
	}
}

func TestPoolPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0, ...) did not panic")
		}
	}()
	NewPool(0, 0)
}
