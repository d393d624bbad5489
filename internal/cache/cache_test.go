package cache

import (
	"testing"

	"guardrails/internal/trace"
)

func TestCacheValidation(t *testing.T) {
	if _, err := New(0, NewLRU()); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("nil policy should error")
	}
}

func TestLRUSemantics(t *testing.T) {
	c, err := New(2, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(1) {
		t.Error("first access should miss")
	}
	c.Access(2)
	if !c.Access(1) {
		t.Error("resident key should hit")
	}
	// LRU order now [1, 2]; inserting 3 evicts 2.
	c.Access(3)
	if !c.entries[1] || c.entries[2] || !c.entries[3] {
		t.Errorf("LRU evicted wrong key: 1=%v 2=%v 3=%v",
			c.entries[1], c.entries[2], c.entries[3])
	}
	if len(c.entries) != 2 {
		t.Errorf("len = %d", len(c.entries))
	}
}

func TestRandomEvictsResidentKeys(t *testing.T) {
	c, _ := New(8, NewRandom(1))
	for i := uint64(0); i < 1000; i++ {
		c.Access(i)
		if len(c.entries) > 8 {
			t.Fatal("capacity exceeded")
		}
	}
	if len(c.entries) != 8 { // 1000 distinct keys: 992 evictions
		t.Errorf("len = %d", len(c.entries))
	}
}

// zipfTrace builds a Zipf access trace.
func zipfTrace(seed int64, n int, universe uint64, skew float64) []uint64 {
	g := trace.NewZipfKeys(seed, universe, skew, false)
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// runTrace replays keys through a fresh cache and returns the hit rate.
func runTrace(t *testing.T, p Policy, capacity int, keys []uint64) float64 {
	t.Helper()
	c, err := New(capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, k := range keys {
		if c.Access(k) {
			hits++
		}
	}
	return float64(hits) / float64(len(keys))
}

func TestLRUBeatsRandomOnZipf(t *testing.T) {
	keys := zipfTrace(5, 50000, 10000, 1.2)
	lru := runTrace(t, NewLRU(), 256, keys)
	rnd := runTrace(t, NewRandom(6), 256, keys)
	if lru <= rnd {
		t.Errorf("LRU %.3f should beat random %.3f on Zipf", lru, rnd)
	}
}

func TestLearnedBeatsRandomOnTrainedWorkload(t *testing.T) {
	train := zipfTrace(7, 40000, 10000, 1.3)
	test := zipfTrace(8, 40000, 10000, 1.3)

	learned := NewLearned(9)
	if _, err := learned.TrainOnTrace(train, 2000, 256); err != nil {
		t.Fatal(err)
	}
	l := runTrace(t, learned, 256, test)
	r := runTrace(t, NewRandom(10), 256, test)
	if l <= r {
		t.Errorf("learned %.3f should beat random %.3f in distribution", l, r)
	}
}

func TestLearnedDegradesUnderShift(t *testing.T) {
	// Trained on Zipf, evaluated on uniform keys the scores carry no
	// signal; hit rate should collapse toward the random baseline
	// (within a small tolerance) — the regret signal P4 monitors.
	train := zipfTrace(11, 40000, 10000, 1.3)
	learned := NewLearned(12)
	if _, err := learned.TrainOnTrace(train, 2000, 256); err != nil {
		t.Fatal(err)
	}
	uniform := make([]uint64, 40000)
	g := trace.NewUniformKeys(13, 10000)
	for i := range uniform {
		uniform[i] = g.Next()
	}
	l := runTrace(t, learned, 256, uniform)
	r := runTrace(t, NewRandom(14), 256, uniform)
	if l > r+0.02 {
		t.Errorf("learned %.3f should not beat random %.3f out of distribution by > 2pp",
			l, r)
	}
}

func TestLearnedTrainValidation(t *testing.T) {
	p := NewLearned(1)
	if _, err := p.TrainOnTrace([]uint64{1, 2}, 10, 4); err == nil {
		t.Error("short trace should error")
	}
	unique := make([]uint64, 100)
	for i := range unique {
		unique[i] = uint64(i)
	}
	if _, err := p.TrainOnTrace(unique, 10, 4); err == nil {
		t.Error("trace without repeats should error")
	}
}

func TestSwapPolicyMidStream(t *testing.T) {
	c, _ := New(64, NewLRU())
	keys := zipfTrace(30, 5000, 500, 1.5)
	for _, k := range keys[:2500] {
		c.Access(k)
	}
	if err := c.SwapPolicy(nil); err == nil {
		t.Error("nil swap should error")
	}
	if err := c.SwapPolicy(NewRandom(31)); err != nil {
		t.Fatal(err)
	}
	if c.policy.Name() != "random" {
		t.Error("policy not swapped")
	}
	// The new policy must be able to evict immediately without panics.
	for _, k := range keys[2500:] {
		c.Access(k)
	}
	if len(c.entries) > 64 {
		t.Error("capacity exceeded after swap")
	}
}

func TestPolicyNames(t *testing.T) {
	if NewLRU().Name() != "lru" ||
		NewRandom(1).Name() != "random" || NewLearned(1).Name() != "learned" {
		t.Error("policy names wrong")
	}
}

func TestPoliciesNeverEvictNonResident(t *testing.T) {
	// The Cache panics if a policy returns a non-resident victim; churn
	// every policy to smoke this invariant.
	keys := zipfTrace(20, 20000, 500, 1.5)
	for _, p := range []Policy{NewLRU(), NewRandom(21), NewLearned(22)} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: %v", p.Name(), r)
				}
			}()
			runTrace(t, p, 64, keys)
		}()
	}
}
