package kernel

import (
	"io"
	"reflect"
	"testing"

	"guardrails/internal/telemetry"
)

// observed reads what one sink holds about a site: exact fires, and the
// sampled dispatch-latency observations.
func observed(s *telemetry.Sink, site string) [2]uint64 {
	return [2]uint64{s.Counters.HookFires.Value(), s.HookHist(site).Summary().Count}
}

// TestFireSamplesDispatchTimingBySiteFireCount: wall timing is taken on
// the site's 1st, 65th, 129th, ... fire, so N fires leave exactly
// ceil(N/period) observations — the first among them — while the fire
// counters stay exact.
func TestFireSamplesDispatchTimingBySiteFireCount(t *testing.T) {
	for _, n := range []uint64{1, 2, dispatchSamplePeriod - 1, dispatchSamplePeriod, dispatchSamplePeriod + 1, 1000} {
		k := New()
		sink := telemetry.New(nil, 16)
		k.SetTelemetry(sink)
		k.Attach("io_done", func(*Kernel, string, []float64) {})
		for i := uint64(0); i < n; i++ {
			k.Fire("io_done", 1)
			if i == 0 {
				if got := sink.HookHist("io_done").Summary().Count; got != 1 {
					t.Fatalf("the first fire left %d observations, want 1", got)
				}
			}
		}
		want := [2]uint64{n, (n + dispatchSamplePeriod - 1) / dispatchSamplePeriod}
		if got := observed(sink, "io_done"); got != want {
			t.Errorf("%d fires: (hook_fires_total, hook_dispatch_ns count) = %v, want %v", n, got, want)
		}
		if got := k.FireCount("io_done"); got != n {
			t.Errorf("FireCount = %d, want %d", got, n)
		}
	}
}

// TestFireSamplingIsDeterministicAcrossShards: the sample is a function
// of each shard's own site fire count, so a 1-shard pool reads what the
// single loop reads and two K-shard runs read the same per shard.
func TestFireSamplingIsDeterministicAcrossShards(t *testing.T) {
	// load makes shard i fire "tick" 3+i times every 100µs.
	load := func(k *Kernel, i int) *telemetry.Sink {
		sink := telemetry.New(nil, 16)
		k.SetTelemetry(sink)
		k.Every(0, 100*Microsecond, 0, func(Time) {
			for f := 0; f < 3+i; f++ {
				k.Fire("tick", float64(f))
			}
		})
		return sink
	}
	pool := func(shards int) [][2]uint64 {
		p := NewPool(shards, 500*Microsecond)
		sinks := make([]*telemetry.Sink, shards)
		for i := range sinks {
			sinks[i] = load(p.Shard(i), i)
		}
		p.RunUntil(20 * Millisecond)
		out := make([][2]uint64, shards)
		for i, s := range sinks {
			out[i] = observed(s, "tick")
		}
		return out
	}

	solo := New()
	soloSink := load(solo, 0)
	solo.RunUntil(20 * Millisecond)
	want := [2]uint64{600, 10} // 200 ticks × 3 fires; ceil(600/64)
	if got := observed(soloSink, "tick"); got != want {
		t.Fatalf("single loop read %v, want %v", got, want)
	}
	if got := pool(1); got[0] != want {
		t.Errorf("1-shard pool read %v, the single loop %v", got[0], want)
	}
	a, b := pool(4), pool(4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two 4-shard runs sampled differently:\n%v\n%v", a, b)
	}
	for i, got := range a {
		fires := uint64(200 * (3 + i))
		if want := [2]uint64{fires, (fires + dispatchSamplePeriod - 1) / dispatchSamplePeriod}; got != want {
			t.Errorf("shard %d read %v, want %v", i, got, want)
		}
	}
}

// TestFireObservedWhileSinkIsRead: a sink belongs to the goroutine
// that fires its kernel, so it is read on that goroutine — here from
// events scheduled with At between batches of fires — or by another
// goroutine the firer hands it to and waits for. Either read is exact
// at that instant and race-clean (run under -race).
func TestFireObservedWhileSinkIsRead(t *testing.T) {
	const batches, perBatch = 100, 1000
	k := New()
	sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 256)
	k.SetTelemetry(sink)
	k.Attach("io_done", func(*Kernel, string, []float64) {})
	want := func(fires uint64) [2]uint64 {
		return [2]uint64{fires, (fires + dispatchSamplePeriod - 1) / dispatchSamplePeriod}
	}

	var fired uint64 // owned, like the sink
	k.Every(0, Microsecond, batches*Microsecond, func(Time) {
		for i := 0; i < perBatch; i++ {
			k.Fire("io_done", float64(fired))
			fired++
		}
	})

	// The second goroutine exports whatever it is handed and answers
	// with the counts it read.
	handoff, back := make(chan *telemetry.Sink), make(chan [2]uint64)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for s := range handoff {
			_ = s.Snapshot()
			if err := s.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			back <- observed(s, "io_done")
		}
	}()

	reads := 0
	for b := 0; b < batches; b += 7 {
		k.At(Time(b)*Microsecond+Microsecond/2, func() {
			if got := observed(sink, "io_done"); got != want(fired) {
				t.Errorf("on the owner after %d fires: %v, want %v", fired, got, want(fired))
			}
			handoff <- sink
			if got := <-back; got != want(fired) {
				t.Errorf("handed off after %d fires: %v, want %v", fired, got, want(fired))
			}
			reads++
		})
	}
	k.RunUntil(batches * Microsecond)
	close(handoff)
	<-readerDone

	if reads != (batches+6)/7 {
		t.Errorf("%d mid-run reads ran, want %d", reads, (batches+6)/7)
	}
	if got := observed(sink, "io_done"); got != want(batches*perBatch) {
		t.Errorf("after %d fires: %v, want %v", batches*perBatch, got, want(batches*perBatch))
	}
}
