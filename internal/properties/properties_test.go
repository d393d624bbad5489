package properties

import (
	"math/rand"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/spec"
	"guardrails/internal/spec/vet"
)

// mustCompile asserts that generated spec text goes through the real
// parser, checker, and compiler — at both optimization levels, so the
// library-generated P1–P6 guardrails keep working whichever way the
// operator builds them — with the abstract interpreter proving every
// emitted program trap-free, and that the spec lints clean (no
// warning-severity vet diagnostics).
func mustCompile(t *testing.T, src string) {
	t.Helper()
	unopt, err := compile.SourceWith(src, compile.Options{Level: 0})
	if err != nil {
		t.Fatalf("generated spec does not compile at -O0: %v\n%s", err, src)
	}
	opt, err := compile.SourceWith(src, compile.Options{Level: 1})
	if err != nil {
		t.Fatalf("generated spec does not compile at -O1: %v\n%s", err, src)
	}
	for i := range opt {
		if o, u := len(opt[i].Program.Code), len(unopt[i].Program.Code); o > u {
			t.Errorf("optimization grew %q from %d to %d insns\n%s",
				opt[i].Name, u, o, opt[i].Program)
		}
	}
	for _, cs := range [][]*compile.Compiled{unopt, opt} {
		for _, c := range cs {
			m := c.Program.Meta
			if !m.TrapFree || m.MaxSteps <= 0 {
				t.Errorf("%q at -O%d carries no trap-freedom proof: %+v",
					c.Name, m.OptLevel, m)
			}
		}
	}
	f, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("reparse for vet: %v", err)
	}
	if err := spec.Check(f); err != nil {
		t.Fatalf("recheck for vet: %v", err)
	}
	for _, d := range vet.File(f) {
		if d.Severity == vet.Warn {
			t.Errorf("generated spec does not lint clean: %s\n%s", d, src)
		}
	}
}

func TestBuildSpecCompiles(t *testing.T) {
	src := BuildSpec("multi-rule",
		[]string{TimerTrigger(1e9), "FUNCTION(io_submit)"},
		[]string{"LOAD(a) <= 1", "LOAD(b) >= 0"},
		[]string{"REPORT(LOAD(a))", "SAVE(k, 0)"},
	)
	mustCompile(t, src)
	if !strings.Contains(src, "TIMER(start_time, 1e+09)") {
		t.Errorf("trigger rendering: %s", src)
	}
}

func TestDriftDetectorDetectsShift(t *testing.T) {
	st := featurestore.New()
	d, err := NewDriftDetector(st, "io_lat", 0, 100, 20, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		d.AddReference(rng.NormFloat64()*10 + 30)
	}
	// In-distribution batch: low PSI.
	for i := 0; i < 500; i++ {
		d.Observe(rng.NormFloat64()*10 + 30)
	}
	if psi := st.Load(DriftKey("io_lat")); psi > 0.1 {
		t.Errorf("in-distribution PSI = %v", psi)
	}
	// Shifted batch: high PSI.
	for i := 0; i < 500; i++ {
		d.Observe(rng.NormFloat64()*10 + 70)
	}
	if psi := st.Load(DriftKey("io_lat")); psi < 0.25 {
		t.Errorf("shifted PSI = %v, want > 0.25", psi)
	}
	// Window resets: going back in distribution recovers.
	for i := 0; i < 500; i++ {
		d.Observe(rng.NormFloat64()*10 + 30)
	}
	if psi := st.Load(DriftKey("io_lat")); psi > 0.1 {
		t.Errorf("recovered PSI = %v", psi)
	}
	mustCompile(t, d.Spec("p1-drift", "io_lat", "io_model", 0.25, 1e9))
}

func TestDriftDetectorValidation(t *testing.T) {
	st := featurestore.New()
	if _, err := NewDriftDetector(st, "x", 0, 1, 4, 0); err == nil {
		t.Error("zero batch should error")
	}
}

func TestRegretMonitor(t *testing.T) {
	st := featurestore.New()
	m := NewRegretMonitor(st, "cache", 16)
	// Learned wins: regret negative.
	for i := 0; i < 20; i++ {
		m.Observe(1, 0)
	}
	if r := st.Load(RegretKey("cache")); r >= 0 {
		t.Errorf("winning regret = %v", r)
	}
	// Learned collapses: regret goes positive.
	for i := 0; i < 20; i++ {
		m.Observe(0, 1)
	}
	if r := st.Load(RegretKey("cache")); r <= 0.5 {
		t.Errorf("losing regret = %v", r)
	}
}

func TestOverheadMonitor(t *testing.T) {
	st := featurestore.New()
	m := NewOverheadMonitor(st, "linnos", 16)
	// Cheap inference, large gains: ratio << 1.
	for i := 0; i < 20; i++ {
		m.Observe(6000, 500000)
	}
	if r := st.Load(OverheadKey("linnos")); r > 0.05 {
		t.Errorf("profitable ratio = %v", r)
	}
	// Gains vanish: ratio blows past 1.
	for i := 0; i < 20; i++ {
		m.Observe(6000, 100)
	}
	if r := st.Load(OverheadKey("linnos")); r < 1 {
		t.Errorf("unprofitable ratio = %v", r)
	}
	// Zero/negative mean gain publishes the sentinel.
	m2 := NewOverheadMonitor(st, "dead", 4)
	m2.Observe(100, 0)
	if st.Load(OverheadKey("dead")) != 1e9 {
		t.Error("sentinel ratio missing")
	}
	mustCompile(t, m.Spec("p5-overhead", "linnos", "ml_enabled", 1, 1e9))
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
