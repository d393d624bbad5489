package guardrails

import (
	"strings"
	"testing"
)

const demoSpec = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`

func TestSystemEndToEnd(t *testing.T) {
	sys := NewSystem()
	sys.Store.Save("ml_enabled", 1)
	sys.Store.Save("false_submit_rate", 0.01)
	mons, err := sys.LoadGuardrails(demoSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mons) != 1 || mons[0].Name() != "low-false-submit" {
		t.Fatalf("monitors = %v", mons)
	}
	sys.Kernel.RunUntil(3 * Second)
	if sys.Store.Load("ml_enabled") != 1 {
		t.Error("guardrail acted while healthy")
	}
	sys.Store.Save("false_submit_rate", 0.2)
	sys.Kernel.RunUntil(5 * Second)
	if sys.Store.Load("ml_enabled") != 0 {
		t.Error("guardrail did not act")
	}
	s := mons[0].Stats()
	if s.Evals == 0 || s.Violations == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestParseSpecPublicAPI(t *testing.T) {
	f, err := ParseSpec(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Guardrails) != 1 {
		t.Fatal("wrong guardrail count")
	}
	if _, err := ParseSpec("guardrail g { rule: { 5 } }"); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestCompileSpecPublicAPI(t *testing.T) {
	cs, err := CompileSpec(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatal("wrong compiled count")
	}
	if err := Verify(cs[0].Program); err != nil {
		t.Errorf("verified program rejected: %v", err)
	}
	asm := cs[0].Program.String()
	if !strings.Contains(asm, "false_submit_rate") {
		t.Errorf("disassembly missing symbol:\n%s", asm)
	}
}

func TestRuntimeActionComponentsExposed(t *testing.T) {
	sys := NewSystem()
	if sys.Runtime.Log == nil || sys.Runtime.Policies == nil ||
		sys.Runtime.Retrainer == nil || sys.Runtime.Deprioritizer == nil {
		t.Error("action components not wired")
	}
}

// TestFaultInjectionPublicAPI is the README's fault-injection example:
// a seeded plan trips the breaker, fail-closed forces the safe config,
// the cooldown re-arms the monitor, and the audit sees every fault.
func TestFaultInjectionPublicAPI(t *testing.T) {
	sys := NewSystem()
	sys.Store.Save("ml_enabled", 1)
	sys.Store.Save("false_submit_rate", 0.01)
	mons, err := sys.LoadGuardrails(demoSpec, Options{
		OnFault:          FailClosed,
		BreakerThreshold: 3,
		BreakerWindow:    10 * Second,
		Cooldown:         3 * Second,
		RetryMax:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := mons[0]

	plan := &FaultPlan{Seed: 42, Rules: []FaultRule{
		{Kind: FaultEvalTrap, Guardrail: "low-false-submit",
			From: 5 * Second, Until: 9 * Second},
	}}
	inj := sys.InjectFaults(plan)

	// The trap burst at 5..8s trips the 3-fault breaker.
	sys.Kernel.RunUntil(8 * Second)
	if mon.State() != StateQuarantined {
		t.Fatalf("state = %v, want quarantined", mon.State())
	}
	// FailClosed forced the guardrail's own action: model disabled.
	if sys.Store.Load("ml_enabled") != 0 {
		t.Error("fail-closed quarantine did not force the safe config")
	}
	if got := inj.Count(FaultEvalTrap); got != 3 {
		t.Errorf("delivered traps = %d, want 3 (breaker stops evaluation)", got)
	}

	// The 3s cooldown re-arms it; the injection window is over.
	sys.Kernel.RunUntil(15 * Second)
	if mon.State() != StateActive {
		t.Errorf("state = %v after cooldown, want active", mon.State())
	}
	st := mon.Stats()
	if st.Traps != 3 || st.Quarantines != 1 || st.Rearms != 1 {
		t.Errorf("stats = %+v", st)
	}
	if sys.Runtime.DeadLetter == nil {
		t.Fatal("dead-letter queue not wired")
	}
}

// TestRecorderContextThroughFacade goes facade-only along the paper's A1
// path: NewRecorder → Store.AttachRecorder → Options.Recorder → a
// violating REPORT whose Context holds the writes that triggered it.
// Options.Recorder and the Recorder alias were public before
// NewRecorder was, and a zero Recorder panics on its first write.
func TestRecorderContextThroughFacade(t *testing.T) {
	sys := NewSystem()
	rec := NewRecorder(16)
	sys.Store.Intern("io_latency_us")
	sys.Store.AttachRecorder(rec, "io_latency_us")
	_, err := sys.LoadGuardrails(`
guardrail slow-io {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(slow_rate) <= 0.1 },
    action: { REPORT(LOAD(slow_rate)) }
}`, Options{Recorder: rec, RecorderContext: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, us := range []float64{90, 4000, 9000} {
		sys.Store.Save("io_latency_us", us)
	}
	sys.Store.Save("slow_rate", 0.5)
	sys.Kernel.RunUntil(Second)

	reports := sys.Runtime.Log.Recent(1)
	if len(reports) != 1 {
		t.Fatalf("violation reports = %d, want 1", len(reports))
	}
	var got []float64
	for _, w := range reports[0].Context {
		if w.Key != "io_latency_us" {
			t.Errorf("unattached key %q in context", w.Key)
		}
		got = append(got, w.Value)
	}
	if len(got) != 2 || got[0] != 4000 || got[1] != 9000 {
		t.Errorf("context = %v, want the last two attached writes [4000 9000]", got)
	}
}
