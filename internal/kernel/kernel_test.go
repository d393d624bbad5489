package kernel

import (
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
