package featurestore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	s.Save("false_submit_rate", 0.03)
	if got := s.Load("false_submit_rate"); got != 0.03 {
		t.Errorf("Load = %v, want 0.03", got)
	}
	if got := s.Load("never_written"); got != 0 {
		t.Errorf("unknown key = %v, want 0", got)
	}
}

func TestInternIsStable(t *testing.T) {
	s := New()
	a := s.Intern("x")
	b := s.Intern("y")
	if a == b {
		t.Fatal("distinct keys share an ID")
	}
	if s.Intern("x") != a {
		t.Error("re-intern changed ID")
	}
	if len(*s.cells.Load()) != 2 {
		t.Errorf("Len = %d", len(*s.cells.Load()))
	}
	if s.cellAt(a).name != "x" || s.cellAt(b).name != "y" {
		t.Error("a cell does not carry its key's name")
	}
}

func TestLookupDoesNotCreate(t *testing.T) {
	s := New()
	if id, ok := s.Lookup("ghost"); ok || id != NoID {
		t.Errorf("Lookup created or returned a key: %v %v", id, ok)
	}
	if len(*s.cells.Load()) != 0 {
		t.Error("Lookup must not intern")
	}
}

func TestIDFastPath(t *testing.T) {
	s := New()
	id := s.Intern("lat")
	s.SaveID(id, 12.5)
	if got := s.LoadID(id); got != 12.5 {
		t.Errorf("LoadID = %v", got)
	}
	// Out-of-range IDs are safe no-ops.
	s.SaveID(ID(1000), 1)
	if s.LoadID(ID(1000)) != 0 || s.LoadID(NoID) != 0 {
		t.Error("out-of-range access should yield 0")
	}
}

func TestWatchersFire(t *testing.T) {
	s := New()
	var gotName string
	var gotVal float64
	calls := 0
	s.Watch("ml_enabled", func(name string, v float64) {
		gotName, gotVal = name, v
		calls++
	})
	s.Save("ml_enabled", 0)
	if calls != 1 || gotName != "ml_enabled" || gotVal != 0 {
		t.Errorf("watcher: calls=%d name=%q val=%v", calls, gotName, gotVal)
	}
	s.SaveID(s.Intern("ml_enabled"), 1)
	if calls != 2 || gotVal != 1 {
		t.Errorf("watcher on SaveID: calls=%d val=%v", calls, gotVal)
	}
	// Writes to other keys do not fire.
	s.Save("other", 9)
	if calls != 2 {
		t.Error("watcher fired for unrelated key")
	}
}

func TestMultipleWatchersSameKey(t *testing.T) {
	s := New()
	a, b := 0, 0
	cancelA := s.Watch("k", func(string, float64) { a++ })
	cancelB := s.Watch("k", func(string, float64) { b++ })
	s.Save("k", 1)
	if a != 1 || b != 1 {
		t.Errorf("watchers: a=%d b=%d", a, b)
	}
	// Cancelling removes that registration only, and may be repeated.
	cancelA()
	cancelA()
	s.Save("k", 2)
	if a != 1 || b != 2 {
		t.Errorf("after cancelling a: a=%d b=%d, want 1 and 2", a, b)
	}
	// The last cancel takes the key out of the table writers consult.
	cancelB()
	s.Save("k", 3)
	id, _ := s.Lookup("k")
	if _, watched := (*s.watchers.Load())[id]; watched || len(s.watchRegs[id]) != 0 || b != 2 {
		t.Errorf("after cancelling both: watched=%v regs=%v b=%d", watched, s.watchRegs[id], b)
	}
}

func TestSnapshotAndKeys(t *testing.T) {
	s := New()
	s.Save("b", 2)
	s.Save("a", 1)
	snap := s.Snapshot()
	if len(snap) != 2 || snap["a"] != 1 || snap["b"] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	if s.Dump() != "a=1\nb=2\n" {
		t.Errorf("dump = %q", s.Dump())
	}
}

func TestConcurrentSaveLoadIntern(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := []string{"a", "b", "c", "d"}[i%4]
				// Watchers come and go (monitor load/unload) while
				// other goroutines write the key.
				cancel := s.Watch(key, func(string, float64) {})
				s.Save(key, float64(i))
				_ = s.Load(key)
				_ = s.Intern(key)
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if len(*s.cells.Load()) != 4 {
		t.Errorf("Len = %d, want 4", len(*s.cells.Load()))
	}
	if left := len(*s.watchers.Load()); left != 0 {
		t.Errorf("%d keys still watched after every watcher was cancelled", left)
	}
}

func TestPropertySaveLoadIdentity(t *testing.T) {
	s := New()
	f := func(key string, v float64) bool {
		if v != v { // NaN never compares equal; skip
			return true
		}
		s.Save(key, v)
		return s.Load(key) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentLoadDuringIntern is the cell-growth regression test:
// readers hammer Save/Load on already-interned IDs while other
// goroutines keep growing the copy-on-write cells slice with fresh
// registrations. The growth contract (Intern publishes the grown slice
// before the new ID escapes; cell pointers are shared across slice
// generations) means no read may ever be lost, serve a stale cell, or
// index out of range — and the whole test must be -race clean.
func TestConcurrentLoadDuringIntern(t *testing.T) {
	s := New()
	const (
		readers   = 4
		growers   = 4
		perGrower = 500
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		// One pre-interned cell per reader: the reader's own
		// read-your-write sequence must survive concurrent growth.
		mine := s.Intern(fmt.Sprintf("reader%d", g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n++
				s.SaveID(mine, n)
				if got := s.LoadID(mine); got != n {
					t.Errorf("LoadID(reader cell) = %v, want %v", got, n)
					return
				}
			}
		}()
	}
	ids := make([][]ID, growers)
	for g := 0; g < growers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGrower; i++ {
				key := fmt.Sprintf("g%d.k%d", g, i)
				id := s.Intern(key)
				// A freshly interned ID must be immediately usable on
				// the lock-free path from this goroutine.
				s.SaveID(id, float64(i))
				if got := s.LoadID(id); got != float64(i) {
					t.Errorf("fresh cell %s: Load = %v, want %v", key, got, float64(i))
					return
				}
				ids[g] = append(ids[g], id)
			}
		}(g)
	}
	for g := 0; g < growers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Re-intern the same keys concurrently: must dedupe.
			for i := 0; i < perGrower; i++ {
				_ = s.Intern(fmt.Sprintf("g%d.k%d", g, i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	// Growers finish on their own; readers spin until stopped. Wait for
	// growers by polling Len, then stop readers.
	for len(*s.cells.Load()) < readers+growers*perGrower {
		runtime.Gosched()
	}
	close(stop)
	<-done

	if got, want := len(*s.cells.Load()), readers+growers*perGrower; got != want {
		t.Fatalf("Len = %d, want %d (duplicate or lost registrations)", got, want)
	}
	for g := range ids {
		for i, id := range ids[g] {
			if got := s.LoadID(id); got != float64(i) {
				t.Errorf("post-growth readback g%d.k%d = %v, want %d", g, i, got, i)
			}
		}
	}
}

// TestWatchedSaveDuringRegistration: the owner's watched saves hand each
// watcher its key's name while another goroutine interns keys and
// registers and cancels watchers — without the store's mutex on the
// save path, and -race clean.
func TestWatchedSaveDuringRegistration(t *testing.T) {
	s := New()
	keys := []string{"ml_enabled", "false_submit_rate", "p99_latency"}
	ids := make([]ID, len(keys))
	seen := make([]int, len(keys)) // owned by the saving goroutine
	for i, key := range keys {
		ids[i] = s.Intern(key)
		s.Watch(key, func(name string, _ float64) {
			if name != key {
				t.Errorf("watcher on %q got name %q", key, name)
			}
			seen[i]++
		})
	}
	var wrong atomic.Int64
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Intern(fmt.Sprintf("churn%d", n))
			key := keys[n%len(keys)]
			cancel := s.Watch(key, func(name string, _ float64) {
				if name != key {
					wrong.Add(1)
				}
			})
			runtime.Gosched()
			cancel()
		}
	}()
	want := make([]int, len(keys))
	for n := 0; n < 20000; n++ {
		s.SaveID(ids[n%len(ids)], float64(n))
		want[n%len(ids)]++
	}
	close(stop)
	<-churned
	for i, key := range keys {
		if seen[i] != want[i] {
			t.Errorf("watcher on %q ran %d times, want %d", key, seen[i], want[i])
		}
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d churned watchers got another key's name", n)
	}
}
