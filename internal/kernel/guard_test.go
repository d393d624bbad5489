package kernel

import (
	"sync"
	"testing"
)

// A panicking hook must not tear down the kernel once a panic handler is
// installed, and later hooks on the same site must still run.
func TestHookPanicGuardContainsPanics(t *testing.T) {
	k := New()
	var caught []string
	k.SetHookPanicHandler(func(site string, recovered any) {
		caught = append(caught, site)
	})
	ran := 0
	k.Attach("io:done", func(k *Kernel, site string, args []float64) {
		panic("bad monitor")
	})
	k.Attach("io:done", func(k *Kernel, site string, args []float64) {
		ran++
	})
	k.Fire("io:done", 1)
	k.Fire("io:done", 2)
	if ran != 2 {
		t.Fatalf("healthy hook ran %d times, want 2", ran)
	}
	if len(caught) != 2 || caught[0] != "io:done" {
		t.Fatalf("handler saw %v, want two io:done panics", caught)
	}
	if got := k.HookPanics(); got != 2 {
		t.Fatalf("HookPanics = %d, want 2", got)
	}
}

// Without a handler the historical behavior is preserved: the panic
// propagates to the Fire caller.
func TestHookPanicPropagatesWithoutHandler(t *testing.T) {
	k := New()
	k.Attach("io:done", func(k *Kernel, site string, args []float64) {
		panic("unguarded")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate without a handler")
		}
	}()
	k.Fire("io:done")
}

// Scheduling, attaching, and clock reads must be safe while another
// goroutine steps the event loop (monitors schedule retries and
// cool-downs from action paths). The fire count is owned by the loop:
// the other goroutines read it from an event they schedule on the loop,
// and the test reads it once the loop has stopped.
func TestConcurrentSchedulingWhileRunning(t *testing.T) {
	k := New()
	k.Every(0, Millisecond, Second, func(now Time) {
		k.Fire("tick", float64(now))
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Scheduling is bounded: unbounded producers one simulated
			// millisecond ahead can outrun the loop under -race and keep
			// RunUntil from ever reaching its deadline.
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if n < 2000 {
					k.After(Millisecond, func() { _ = k.FireCount("tick") })
				}
				detach := k.Attach("tick", func(k *Kernel, site string, args []float64) {})
				_ = k.Now()
				detach()
			}
		}()
	}
	k.RunUntil(Second)
	close(stop)
	wg.Wait()
	if k.FireCount("tick") == 0 {
		t.Fatal("timer never fired")
	}
}
