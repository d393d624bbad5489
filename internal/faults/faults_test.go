package faults

import (
	"math"
	"testing"

	"guardrails/internal/kernel"
	"guardrails/internal/storage"
)

func fixedClock(t kernel.Time) func() kernel.Time {
	return func() kernel.Time { return t }
}

// injector arms rules against a bare clock, the monitor-facing half of
// what Plan.Arm builds against a kernel.
func injector(clock func() kernel.Time, rules ...Rule) *Injector {
	return &Injector{rules: rules, clock: clock, counts: map[Kind]int{}, lastSeen: map[string]float64{}}
}

func TestTimeWindowGating(t *testing.T) {
	var now kernel.Time
	inj := injector(func() kernel.Time { return now },
		Rule{Kind: EvalTrap, From: 5 * kernel.Second, Until: 9 * kernel.Second})

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
	inj := injector(fixedClock(0), Rule{Kind: LoadNaN, Guardrail: "a", Key: "rate"})
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

	inj2 := injector(fixedClock(0), Rule{Kind: ActionFail, Key: "RETRAIN"})
	if err := inj2.ActionFault("g", "REPLACE(a, b)"); err != nil {
		t.Error("ActionFail fired for non-matching action")
	}
	if err := inj2.ActionFault("g", "RETRAIN(linnos)"); err == nil {
		t.Error("ActionFail missed matching action")
	}
}

func TestLoadStaleReplaysPreWindowValue(t *testing.T) {
	var now kernel.Time
	inj := injector(func() kernel.Time { return now },
		Rule{Kind: LoadStale, Key: "rate", From: 10 * kernel.Second})

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
	p := &Plan{Rules: []Rule{
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
		t.Errorf("counts fail=%d heal=%d, want 1/1",
			inj.Count(ReplicaFail), inj.Count(ReplicaHeal))
	}
}

func TestStandardChaosIsWellFormed(t *testing.T) {
	p := StandardChaos()
	if len(p.Rules) == 0 {
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
