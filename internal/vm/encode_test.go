package vm

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func buildImageFixture(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("fixture")
	b.Load(1, "false_submit_rate")
	b.JmpIfI(OpJLeI, 1, 0.05, "ok")
	b.MovI(2, 0)
	b.Store("ml_enabled", 2)
	b.MovI(0, 0)
	b.Exit()
	b.Label("ok")
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := buildImageFixture(t)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name {
		t.Errorf("name = %q", q.Name)
	}
	if len(q.Symbols) != len(p.Symbols) {
		t.Fatalf("symbols = %v", q.Symbols)
	}
	for i := range p.Symbols {
		if q.Symbols[i] != p.Symbols[i] {
			t.Errorf("symbol %d = %q, want %q", i, q.Symbols[i], p.Symbols[i])
		}
	}
	if len(q.Code) != len(p.Code) {
		t.Fatalf("code length = %d", len(q.Code))
	}
	for i := range p.Code {
		if q.Code[i] != p.Code[i] {
			t.Errorf("insn %d = %+v, want %+v", i, q.Code[i], p.Code[i])
		}
	}
	// Decoded image must still verify and run identically.
	mustVerify(t, q)
	env := &testEnv{cells: make([]float64, len(q.Symbols))}
	env.cells[0] = 0.2
	if got := run(t, q, env, 0); got != 0 {
		t.Errorf("decoded program result = %v", got)
	}
	if env.cells[1] != 0 {
		t.Errorf("store cell = %v", env.cells[1])
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"bad-magic":   []byte("NOTANIMAGE"),
		"truncated":   []byte(imageMagic),
		"short-magic": []byte("GR"),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
	// Truncated mid-instruction.
	p := buildImageFixture(t)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Decode(bytes.NewReader(full[:len(full)-5])); err == nil {
		t.Error("truncated image accepted")
	}
}

func TestDecodedInvalidProgramFailsVerify(t *testing.T) {
	// An image can carry an unsafe program; the verifier is the gate.
	p := &Program{Name: "evil", Code: []Instr{
		{Op: OpJmp, Off: -1},
		{Op: OpExit},
	}}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(q, NumBuiltinHelpers); err == nil {
		t.Error("decoded unsafe program passed verification")
	}
}

// TestDecodedTrappingImageRejected is the regression for the
// structural-verifier gap the abstract interpreter closed: a program
// that is structurally valid (in-range registers, forward jumps, known
// helper) yet traps at runtime — its HelperAction dispatch index comes
// straight from a feature-store cell that may hold NaN. The image
// round-trips cleanly; only the dataflow analysis rejects it.
func TestDecodedTrappingImageRejected(t *testing.T) {
	b := NewBuilder("trapping-image")
	b.Load(1, "idx")
	b.Call(HelperAction)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Structure alone cannot fault it...
	if err := verifyStructure(q, NumBuiltinHelpers); err != nil {
		t.Fatalf("fixture is meant to be structurally valid: %v", err)
	}
	// ...and the decoded image carries no proof: loaded as is, only the
	// interpreter's runtime guards would stand behind it.
	if q.Meta.TrapFree {
		t.Error("decoded image claims a verifier proof")
	}
	verr := Verify(q, NumBuiltinHelpers)
	if verr == nil {
		t.Fatal("decoded trapping image passed the analyzer")
	}
	var ve *VerifyError
	if !errors.As(verr, &ve) || ve.Reason == "" {
		t.Fatalf("want positioned *VerifyError, got %T %v", verr, verr)
	}
}

// TestDecodeReadsOneImage: Decode consumes exactly one image from a
// source that is an io.ByteReader, so images shipped back to back in
// one buffer decode one after another, certificate sections included.
func TestDecodeReadsOneImage(t *testing.T) {
	first := buildImageFixture(t)
	if err := Certify(first, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	second := buildImageFixture(t)
	second.Name = "second"
	var buf bytes.Buffer
	for _, p := range []*Program{first, second} {
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	sources := map[string]io.Reader{
		"bytes.Buffer": bytes.NewBuffer(buf.Bytes()),
		"bytes.Reader": bytes.NewReader(buf.Bytes()),
		"bufio.Reader": bufio.NewReader(bytes.NewReader(buf.Bytes())),
	}
	for name, r := range sources {
		for _, want := range []*Program{first, second} {
			q, err := Decode(r)
			if err != nil {
				t.Fatalf("%s: decoding %q: %v", name, want.Name, err)
			}
			if q.Name != want.Name || (q.Cert != nil) != (want.Cert != nil) {
				t.Errorf("%s: decoded %q (certificate %v), want %q (certificate %v)",
					name, q.Name, q.Cert != nil, want.Name, want.Cert != nil)
			}
		}
		if n, _ := r.Read(make([]byte, 1)); n != 0 {
			t.Errorf("%s: bytes left after the second image", name)
		}
	}
}
