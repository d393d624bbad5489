package guardrails

// Integration tests for proof-carrying bytecode: a certified program's
// proof survives the Encode/Decode image round-trip, the monitor
// runtime's admission restores the certified facts from the shipped
// certificate (visible in the proven/guarded telemetry split), and a
// tampered certificate loads as an unverified image instead of being
// trusted.

import (
	"bytes"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/vm"
)

const proofCarrySpec = `
guardrail proof-carry-watch {
    trigger: { TIMER(0, 1e8) },
    rule: { LOAD(err_rate) / 100.0 <= 0.25 },
    action: { SAVE(pc_tripped, 1), REPORT(LOAD(err_rate)) }
}`

// imageRoundTrip compiles the spec, certifies and serializes the
// program, and returns the decoded (untrusted) image.
func imageRoundTrip(t *testing.T) *vm.Program {
	t.Helper()
	cs, err := compile.Source(proofCarrySpec)
	if err != nil {
		t.Fatal(err)
	}
	p := cs[0].Program
	if err := vm.Certify(p, vm.NumBuiltinHelpers); err != nil {
		t.Fatalf("certify: %v", err)
	}
	var img bytes.Buffer
	if err := p.Encode(&img); err != nil {
		t.Fatal(err)
	}
	q, err := vm.Decode(&img)
	if err != nil {
		t.Fatal(err)
	}
	if q.Meta.TrapFree {
		t.Fatal("decoded image trusted before its certificate was checked")
	}
	if q.Cert == nil {
		t.Fatal("certificate did not survive the image round-trip")
	}
	return q
}

// TestDecodedCertifiedImageLoadsProven: a decoded image whose
// certificate checks is counted as a proven load — the same
// Prometheus counter split the compiled-path test pins down.
func TestDecodedCertifiedImageLoadsProven(t *testing.T) {
	q := imageRoundTrip(t)

	cs, err := compile.Source(proofCarrySpec)
	if err != nil {
		t.Fatal(err)
	}
	fromImage := *cs[0]
	q.Name = "decoded-certified"
	fromImage.Program = q
	fromImage.Name = q.Name

	sys := NewSystem()
	sink := sys.AttachTelemetry(64)
	if _, err := sys.Runtime.Load(&fromImage, Options{}); err != nil {
		t.Fatal(err)
	}
	m := sys.Runtime.Monitor("decoded-certified")
	if m == nil {
		t.Fatal("monitor not loaded")
	}
	if !q.Meta.TrapFree || q.Meta.MaxSteps <= 0 {
		t.Fatalf("admission did not restore the proof: %+v", q.Meta)
	}

	// The proven monitor must behave identically to a compiled one.
	sys.Store.Save("err_rate", 30)
	sys.Store.Save("req_rate", 100)
	if held := m.Evaluate(0); held {
		t.Error("30% error rate should violate the 25% ceiling")
	}
	if v := sys.Store.Load("pc_tripped"); v != 1 {
		t.Errorf("pc_tripped = %v, want 1", v)
	}
	sys.Store.Save("err_rate", 1)
	if held := m.Evaluate(0); !held {
		t.Error("1% error rate should hold")
	}

	var sb strings.Builder
	if err := sink.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "monitor_loads_proven_total 1") {
		t.Errorf("decoded certified image not counted as a proven load:\n%s", out)
	}
}

// TestTamperedImageLoadsGuarded: corrupt the certificate and the same
// image must still load — but unverified, with the tamper visible in
// the guarded-load counter.
func TestTamperedImageLoadsGuarded(t *testing.T) {
	q := imageRoundTrip(t)
	q.Cert.MaxSteps++ // stale claim

	cs, err := compile.Source(proofCarrySpec)
	if err != nil {
		t.Fatal(err)
	}
	fromImage := *cs[0]
	q.Name = "decoded-tampered"
	fromImage.Program = q
	fromImage.Name = q.Name

	sys := NewSystem()
	sink := sys.AttachTelemetry(64)
	if _, err := sys.Runtime.Load(&fromImage, Options{}); err != nil {
		t.Fatal(err)
	}
	if q.Meta.TrapFree {
		t.Fatal("tampered certificate restored the proof")
	}

	m := sys.Runtime.Monitor("decoded-tampered")
	sys.Store.Save("err_rate", 30)
	sys.Store.Save("req_rate", 100)
	if held := m.Evaluate(0); held {
		t.Error("an unverified image must still evaluate the rule correctly")
	}

	var sb strings.Builder
	if err := sink.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "monitor_loads_guarded_total 1") {
		t.Errorf("tampered image not counted as a guarded load:\n%s", out)
	}
}
