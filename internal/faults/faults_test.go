package faults

import (
	"math"
	"testing"

	"guardrails/internal/kernel"
	"guardrails/internal/storage"
	"guardrails/internal/vm"
)

func fixedClock(t kernel.Time) func() kernel.Time {
	return func() kernel.Time { return t }
}

func TestTimeWindowGating(t *testing.T) {
	var now kernel.Time
	inj := NewInjector(1, func() kernel.Time { return now })
	inj.add(Rule{Kind: EvalTrap, From: 5 * kernel.Second, Until: 9 * kernel.Second})

	for _, tc := range []struct {
		at   kernel.Time
		want bool
	}{
		{0, false},
		{4999 * kernel.Millisecond, false},
		{5 * kernel.Second, true},
		{8999 * kernel.Millisecond, true},
		{9 * kernel.Second, false}, // Until is exclusive
	} {
		now = tc.at
		got := inj.EvalFault("g") != nil
		if got != tc.want {
			t.Errorf("at %v: fired=%v, want %v", tc.at, got, tc.want)
		}
	}
	if inj.Count(EvalTrap) != 2 {
		t.Errorf("count = %d, want 2", inj.Count(EvalTrap))
	}
}

func TestGuardrailAndKeyFilters(t *testing.T) {
	inj := NewInjector(1, fixedClock(0))
	inj.add(Rule{Kind: LoadNaN, Guardrail: "a", Key: "rate"})
	if _, ok := inj.LoadFault("b", "rate", 1); ok {
		t.Error("fired for wrong guardrail")
	}
	if _, ok := inj.LoadFault("a", "total", 1); ok {
		t.Error("fired for wrong key")
	}
	v, ok := inj.LoadFault("a", "err_rate", 1) // substring match
	if !ok || !math.IsNaN(v) {
		t.Errorf("LoadNaN = (%v, %v), want (NaN, true)", v, ok)
	}

	inj2 := NewInjector(1, fixedClock(0))
	inj2.add(Rule{Kind: ActionFail, Key: "RETRAIN"})
	if err := inj2.ActionFault("g", "REPLACE(a, b)"); err != nil {
		t.Error("ActionFail fired for non-matching action")
	}
	if err := inj2.ActionFault("g", "RETRAIN(linnos)"); err == nil {
		t.Error("ActionFail missed matching action")
	}
}

func TestEveryNAndLimit(t *testing.T) {
	inj := NewInjector(1, fixedClock(0))
	inj.add(Rule{Kind: EvalTrap, EveryN: 3, Limit: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if inj.EvalFault("g") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Errorf("fired on calls %v, want [3 6]", fired)
	}
}

func TestProbIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		inj := NewInjector(seed, fixedClock(0))
		inj.add(Rule{Kind: EvalTrap, Prob: 0.5})
		var fired []int
		for i := 0; i < 64; i++ {
			if inj.EvalFault("g") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("prob 0.5 fired %d/64 times", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestLoadStaleReplaysPreWindowValue(t *testing.T) {
	var now kernel.Time
	inj := NewInjector(1, func() kernel.Time { return now })
	inj.add(Rule{Kind: LoadStale, Key: "rate", From: 10 * kernel.Second})

	// Before the window: reads pass through and feed the stale cache.
	now = kernel.Second
	if _, ok := inj.LoadFault("g", "rate", 0.01); ok {
		t.Fatal("fired before window")
	}
	now = 2 * kernel.Second
	if _, ok := inj.LoadFault("g", "rate", 0.03); ok {
		t.Fatal("fired before window")
	}

	// Inside the window: the live value is ignored, the last pre-window
	// value replays.
	now = 11 * kernel.Second
	v, ok := inj.LoadFault("g", "rate", 0.99)
	if !ok || v != 0.03 {
		t.Fatalf("stale read = (%v, %v), want (0.03, true)", v, ok)
	}
}

func TestHelperFilter(t *testing.T) {
	inj := NewInjector(1, fixedClock(0))
	inj.add(Rule{Kind: HelperFail, Helpers: []vm.HelperID{vm.HelperSqrt}})
	if err := inj.HelperFault("g", vm.HelperNow); err != nil {
		t.Error("fired for unlisted helper")
	}
	if err := inj.HelperFault("g", vm.HelperSqrt); err == nil {
		t.Error("missed listed helper")
	}
}

func TestPlanArmsReplicaEvents(t *testing.T) {
	k := kernel.New()
	mk := func(name string) *storage.Device {
		d, err := storage.NewDevice(storage.DefaultDeviceConfig(name, 1))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	arr, err := storage.NewArray(mk("a"), mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{Seed: 1, Rules: []Rule{
		{Kind: ReplicaFail, Replica: 1, At: 2 * kernel.Second},
		{Kind: ReplicaHeal, Replica: 1, At: 4 * kernel.Second},
	}}
	inj := p.Arm(k, arr)

	k.RunUntil(kernel.Second)
	if arr.AliveCount() != 2 {
		t.Fatal("replica failed early")
	}
	k.RunUntil(3 * kernel.Second)
	if arr.AliveCount() != 1 || arr.Secondary() != arr.Replica(0) {
		t.Fatal("replica 1 not failed at 2s")
	}
	k.RunUntil(5 * kernel.Second)
	if arr.AliveCount() != 2 || arr.Secondary() != arr.Replica(1) {
		t.Fatal("replica 1 not healed at 4s")
	}
	if inj.Count(ReplicaFail) != 1 || inj.Count(ReplicaHeal) != 1 {
		t.Errorf("counts fail=%d heal=%d, want 1/1; log: %v",
			inj.Count(ReplicaFail), inj.Count(ReplicaHeal), inj.Injections())
	}
}

func TestStandardChaosIsWellFormed(t *testing.T) {
	p := StandardChaos(42)
	if p.Seed != 42 || len(p.Rules) == 0 {
		t.Fatalf("plan = %+v", p)
	}
	kinds := make(map[Kind]bool)
	for _, r := range p.Rules {
		kinds[r.Kind] = true
	}
	for _, want := range []Kind{EvalTrap, LoadNaN, ActionFail, ReplicaFail, ReplicaHeal} {
		if !kinds[want] {
			t.Errorf("standard chaos missing %v", want)
		}
	}
}
