package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	if n := k.Run(); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.At(100, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestPastEventsRunNow(t *testing.T) {
	k := New()
	k.At(100, func() {})
	k.Run()
	ran := false
	k.At(50, func() { ran = true }) // in the past
	k.Step()
	if !ran {
		t.Fatal("past event did not run")
	}
	if k.Now() != 100 {
		t.Errorf("clock went backwards: %v", k.Now())
	}
}

// TestClockNeverRunsBackwards: an event another goroutine schedules
// while the owner advances the clock can be past due by the time it is
// queued. It runs at the current time: no event, and no read of Now
// between RunUntil slices, ever sees the clock decrease.
func TestClockNeverRunsBackwards(t *testing.T) {
	k := New()
	var last Time
	backwards := 0
	observe := func() {
		if now := k.Now(); now < last {
			backwards++
		} else {
			last = now
		}
	}
	k.Every(0, Microsecond, 0, func(Time) { observe() })
	// One probe outstanding at a time, so the owner's slices stay bounded.
	var pending atomic.Bool
	probe := func() {
		observe()
		pending.Store(false)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pending.CompareAndSwap(false, true) {
				k.After(0, probe)
			} else {
				runtime.Gosched()
			}
		}
	}()
	for i := 1; i <= 50000; i++ {
		k.RunUntil(Time(i) * Microsecond)
		observe()
	}
	close(stop)
	wg.Wait()
	if backwards > 0 {
		t.Fatalf("the clock ran backwards %d times", backwards)
	}
}

// TestEventOrderMatchesReference: the event heap runs events in the
// order of a stable sort by (time, schedule order), where a time in the
// past counts as the clock at scheduling — over random times with many
// ties, past times, and events scheduled from inside events.
func TestEventOrderMatchesReference(t *testing.T) {
	type sched struct {
		id  int
		at  Time
		seq int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		var scheduled []sched
		var ran []int
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			id := len(scheduled)
			scheduled = append(scheduled, sched{id: id, at: max(at, k.Now()), seq: id})
			k.At(at, func() {
				ran = append(ran, id)
				if depth < 3 {
					for c := rng.Intn(3); c > 0; c-- {
						// Offsets from -20 to 19: past, present and future.
						schedule(k.Now()+Time(rng.Intn(40)-20), depth+1)
					}
				}
			})
		}
		for i := 0; i < 200; i++ {
			schedule(Time(rng.Intn(50)), 0)
		}
		k.Run()
		want := append([]sched(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(ran), len(want))
		}
		for i, s := range want {
			if ran[i] != s.id {
				t.Fatalf("seed %d: event %d is #%d, reference says #%d (at %v)", seed, i, ran[i], s.id, s.at)
			}
		}
	}
}

// BenchmarkEventLoop times one event the way the benchmark's
// kernel.event_ns layer does: batches of 64 At calls, then RunUntil.
func BenchmarkEventLoop(b *testing.B) {
	k := New()
	noop := func() {}
	var at Time
	for i := 0; i < b.N; i++ {
		at++
		k.At(at, noop)
		if i%64 == 63 {
			k.RunUntil(at + 1)
		}
	}
	k.RunUntil(at + 1)
}

func TestAfterAndNestedScheduling(t *testing.T) {
	k := New()
	var times []Time
	k.After(10, func() {
		times = append(times, k.Now())
		k.After(5, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	count := 0
	k.At(10, func() { count++ })
	k.At(20, func() { count++ })
	k.At(30, func() { count++ })
	n := k.RunUntil(25)
	if n != 2 || count != 2 {
		t.Errorf("ran %d/%d events", n, count)
	}
	if k.Now() != 25 {
		t.Errorf("clock = %v, want 25", k.Now())
	}
	// Event exactly at the deadline must NOT run (deadline exclusive).
	k.At(40, func() { count++ })
	k.RunUntil(30)
	if count != 2 {
		t.Error("event at deadline ran")
	}
}

func TestTimerPeriodic(t *testing.T) {
	k := New()
	var fires []Time
	k.Every(100, 50, 300, func(now Time) { fires = append(fires, now) })
	k.Run()
	want := []Time{100, 150, 200, 250}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTimerStop(t *testing.T) {
	k := New()
	count := 0
	var tm *Timer
	tm = k.Every(0, 10, 0, func(now Time) {
		count++
		if count == 3 {
			tm.Stop()
		}
	})
	k.RunUntil(1000)
	if count != 3 {
		t.Errorf("fired %d times after stop, want 3", count)
	}
	tm.Stop() // idempotent
}

func TestTimerForever(t *testing.T) {
	k := New()
	count := 0
	k.Every(0, 100, 0, func(Time) { count++ })
	k.RunUntil(1000)
	if count != 10 { // t=0..900
		t.Errorf("count = %d, want 10", count)
	}
}

func TestTimerBadInterval(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("zero interval should panic")
		}
	}()
	k.Every(0, 0, 0, func(Time) {})
}

func TestHooksFireInOrderAndDetach(t *testing.T) {
	k := New()
	var got []string
	d1 := k.Attach("io_submit", func(_ *Kernel, site string, args []float64) {
		got = append(got, "a")
		if site != "io_submit" || len(args) != 2 || args[0] != 1 || args[1] != 2 {
			t.Errorf("hook saw site=%q args=%v", site, args)
		}
	})
	k.Attach("io_submit", func(_ *Kernel, _ string, _ []float64) { got = append(got, "b") })
	k.Fire("io_submit", 1, 2)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got = %v", got)
	}
	d1()
	k.Fire("io_submit", 1, 2)
	if len(got) != 3 || got[2] != "b" {
		t.Errorf("after detach got = %v", got)
	}
	d1() // double-detach is a no-op
	if k.FireCount("io_submit") != 2 {
		t.Errorf("fire count = %d", k.FireCount("io_submit"))
	}
	if k.FireCount("never") != 0 {
		t.Error("unknown site count should be 0")
	}
}

// TestNestedFiresKeepTheirArguments: a hook that fires its own site and
// then another sees each nested fire's own arguments, and once a nested
// fire returns, the hooks of the outer fire see the outer arguments
// again and its remaining hooks run — for 0-, 1- and 2-argument fires,
// and across a nesting deep enough to outgrow the kernel's argument
// stack. Each site's fire count stays exact.
func TestNestedFiresKeepTheirArguments(t *testing.T) {
	k := New()
	var seen []string
	record := func(who string, args []float64) { seen = append(seen, fmt.Sprint(who, args)) }
	reentered := false
	k.Attach("outer", func(k *Kernel, _ string, args []float64) {
		record("outer.a", args)
		if !reentered {
			reentered = true
			k.Fire("outer", 7)
		}
		record("outer.a after self", args)
		k.Fire("inner")
		record("outer.a after inner", args)
	})
	k.Attach("outer", func(_ *Kernel, _ string, args []float64) { record("outer.b", args) })
	k.Attach("inner", func(k *Kernel, _ string, args []float64) {
		record("inner", args)
		k.Fire("leaf", 8, 9)
		record("inner after leaf", args)
	})
	k.Attach("leaf", func(_ *Kernel, _ string, args []float64) { record("leaf", args) })
	k.Fire("outer", 1, 2)
	want := []string{
		"outer.a[1 2]",
		"outer.a[7]", "outer.a after self[7]",
		"inner[]", "leaf[8 9]", "inner after leaf[]",
		"outer.a after inner[7]", "outer.b[7]",
		"outer.a after self[1 2]",
		"inner[]", "leaf[8 9]", "inner after leaf[]",
		"outer.a after inner[1 2]", "outer.b[1 2]",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("hooks saw\n%q\nwant\n%q", seen, want)
	}
	// Most fires above switch site, so they find their site by name.
	for _, site := range []string{"outer", "inner", "leaf"} {
		if got := k.FireCount(site); got != 2 {
			t.Errorf("%s fired %d times, want 2", site, got)
		}
	}

	// Twelve nested 3-argument frames are 36 floats: the stack grows
	// under frames that are still live.
	const depth = 12
	k.Attach("deep", func(k *Kernel, _ string, args []float64) {
		before := fmt.Sprint(args)
		if d := args[0]; d < depth {
			k.Fire("deep", d+1, -d, 10*d)
		}
		if after := fmt.Sprint(args); after != before {
			t.Errorf("frame %s changed to %s across a nested fire", before, after)
		}
	})
	k.Fire("deep", 0, 0, 0)
	if got := k.FireCount("deep"); got != depth+1 {
		t.Errorf("deep fired %d times, want %d", got, depth+1)
	}
}

func TestFireUnattachedSite(t *testing.T) {
	k := New()
	k.Fire("lonely", 3.14) // must not panic
	if k.FireCount("lonely") != 1 {
		t.Error("fire count not recorded")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// TestKernelStateOwnsItsCacheLines: what the owner writes in the
// Kernel on every fire or event shares no cache line with another
// object — another shard's kernel, say: a kernel opens and closes with
// a line of padding. On a 2-shard pool on a 2-vCPU VM the pads are the
// difference between ~60 and ~80 ns a fire (EXPERIMENTS.md, "Monitor
// cost").
func TestKernelStateOwnsItsCacheLines(t *testing.T) {
	kt := reflect.TypeOf(Kernel{})
	for _, f := range []reflect.StructField{kt.Field(0), kt.Field(kt.NumField() - 1)} {
		if f.Name != "_" || f.Type.Size() < cacheLine {
			t.Errorf("Kernel field %q (%d bytes) at offset %d: want a %d-byte pad at each end", f.Name, f.Type.Size(), f.Offset, cacheLine)
		}
	}
}
