package vm

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// certFixture builds a branchy program with stores, helper calls, and a
// division so its certificate carries non-trivial block invariants.
func certFixture(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("cert-fixture")
	b.Load(6, "qdepth")
	b.Load(7, "latency")
	b.JmpIfI(OpJLeI, 6, 8, "shallow")
	b.MovI(1, 2)
	b.Call(HelperAction)
	b.MovI(2, 0)
	b.Store("ml_enabled", 2)
	b.MovI(0, 0)
	b.Exit()
	b.Label("shallow")
	b.MovI(8, 4)
	b.Mov(9, 7)
	b.ALU(OpDiv, 9, 9, 8) // divisor is the constant 4: provably non-zero
	b.Store("lat_q", 9)
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCertifyMatchesVerify(t *testing.T) {
	p := certFixture(t)
	q := certFixture(t)
	mustVerify(t, p)
	if err := Certify(q, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	if q.Meta != p.Meta {
		t.Errorf("Certify meta %+v, want Verify's %+v", q.Meta, p.Meta)
	}
	if q.Cert == nil || len(q.Cert.Blocks) == 0 {
		t.Fatalf("certificate missing or trivial: %+v", q.Cert)
	}
	if !q.Cert.DivProven {
		t.Error("fixture divisor is constant 4; DivProven should hold")
	}
}

func TestCertifyRejectsUnsafe(t *testing.T) {
	p := &Program{Name: "unsafe", Code: []Instr{
		{Op: OpMov, Dst: 0, Src: 3}, // r3 uninitialized
		{Op: OpExit},
	}}
	if err := Certify(p, NumBuiltinHelpers); err == nil {
		t.Fatal("Certify accepted an unsafe program")
	}
	if p.Cert != nil || p.Meta.TrapFree {
		t.Error("rejected program carries proof state")
	}
}

// TestCertificateRoundTripProven is the certificate's core promise: a
// certified program survives Encode/Decode with its proof intact, and
// CheckCertificate restores the exact Meta claims, which the decoded
// image then honours — trap-free within the certified step bound.
func TestCertificateRoundTripProven(t *testing.T) {
	p := certFixture(t)
	if err := Certify(p, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	wantMeta := ProgramMeta{MaxSteps: p.Meta.MaxSteps, TrapFree: true, DivProven: p.Meta.DivProven}

	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Meta != (ProgramMeta{}) {
		t.Fatalf("decoded image trusted before checking: %+v", q.Meta)
	}
	if q.Cert == nil {
		t.Fatal("certificate did not survive serialization")
	}
	if err := CheckCertificate(q, NumBuiltinHelpers); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	if q.Meta != wantMeta {
		t.Fatalf("restored meta %+v, want %+v", q.Meta, wantMeta)
	}

	for _, qd := range []float64{0, 8, 9, math.NaN()} {
		env := &testEnv{cells: make([]float64, len(q.Symbols))}
		env.cells[0] = qd
		env.cells[1] = 100
		var m Machine
		if _, err := m.Run(q, env, 0); err != nil {
			t.Fatalf("qdepth=%v: certified image trapped: %v", qd, err)
		}
		if int(m.Steps) > q.Meta.MaxSteps {
			t.Fatalf("qdepth=%v: %d steps exceed certified bound %d", qd, m.Steps, q.Meta.MaxSteps)
		}
	}
}

// TestTwoAddressImagesRefused: GRVM1 and GRVM2 images hold 19-byte
// instruction records whose ALU ops are two-address (dst op= src), so
// they cannot be read as three-address ones. Decode must refuse them
// outright, even when they are otherwise well formed.
func TestTwoAddressImagesRefused(t *testing.T) {
	for _, c := range []struct {
		magic string
		cert  bool
	}{{"GRVM1\x00", false}, {"GRVM2\x00", true}} {
		img := append([]byte(c.magic), 0, 0, 0, 0) // no name, no symbols
		img = append(img, 1, 0, 0, 0)              // one instruction:
		img = append(img, uint8(OpExit))           // u8 op, u8 dst, u8 src,
		img = append(img, make([]byte, 18)...)     // i32 off, i32 cell, f64 imm
		if c.cert {
			img = append(img, 0)
		}
		if _, err := Decode(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("%q image: Decode error = %v, want a bad-magic refusal", c.magic[:5], err)
		}
	}
}

func TestCheckCertificateRejections(t *testing.T) {
	fresh := func() *Program {
		p := certFixture(t)
		if err := Certify(p, NumBuiltinHelpers); err != nil {
			t.Fatal(err)
		}
		p.Meta = ProgramMeta{} // simulate a decoded image
		return p
	}
	cases := map[string]func(p *Program){
		"no-certificate":  func(p *Program) { p.Cert = nil },
		"wrong-max-steps": func(p *Program) { p.Cert.MaxSteps++ },
		"false-div-claim": func(p *Program) {
			// Turn the constant divisor into a cell value the checker
			// cannot prove non-zero while the cert still claims DivProven.
			for i, in := range p.Code {
				if in.Op == OpMovI && in.Imm == 4 {
					p.Code[i] = Instr{Op: OpLoad, Dst: in.Dst, Cell: 0}
				}
			}
		},
		"missing-block": func(p *Program) { p.Cert.Blocks = p.Cert.Blocks[:0] },
		"narrowed-invariant": func(p *Program) {
			// Claim a register is a narrow singleton the real flow exceeds.
			b := &p.Cert.Blocks[0]
			b.Regs[6] = Interval{Num: true, Lo: 42, Hi: 42}
		},
		"widened-init": func(p *Program) {
			// Claim a register initialized that no path initializes.
			b := &p.Cert.Blocks[0]
			b.Init |= 1 << 15
		},
		"unsorted-blocks": func(p *Program) {
			p.Cert.Blocks = append(p.Cert.Blocks, p.Cert.Blocks[0])
		},
		"block-outside-program": func(p *Program) {
			p.Cert.Blocks[len(p.Cert.Blocks)-1].PC = len(p.Code) + 7
		},
		"bad-init-mask": func(p *Program) { p.Cert.Blocks[0].Init = 1 << 20 },
		"stale-for-edited-code": func(p *Program) {
			// Raise the branch threshold: wider values now flow into the
			// "shallow" block than its shipped invariant covers, so the
			// edge-subsumption check must fail.
			for i, in := range p.Code {
				if in.Op == OpJLeI {
					p.Code[i].Imm = 1e9
				}
			}
		},
	}
	for name, corrupt := range cases {
		p := fresh()
		corrupt(p)
		err := CheckCertificate(p, NumBuiltinHelpers)
		if err == nil {
			t.Errorf("%s: tampered certificate accepted", name)
			continue
		}
		var ve *VerifyError
		if !errors.As(err, &ve) || ve.Reason == "" {
			t.Errorf("%s: want positioned *VerifyError, got %T %v", name, err, err)
		}
		if p.Meta.TrapFree {
			t.Errorf("%s: rejected program still claims a proof", name)
		}
	}
}

// TestCertificateTamperCorpus is the acceptance gate for the trust
// boundary: hundreds of byte-level corruptions of certified images must
// never admit a bad proof. Each corrupted image either fails to decode,
// fails CheckCertificate (loading as an unverified image), or — when
// the corruption happens to leave a semantically valid program+proof —
// the admitted program must run trap-free within its certified step
// bound on adversarial inputs.
func TestCertificateTamperCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7a3b))
	base := func() []byte {
		p := certFixture(t)
		if err := Certify(p, NumBuiltinHelpers); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	second := func() []byte {
		b := NewBuilder("tamper-two")
		b.Load(6, "a")
		b.Load(7, "b")
		b.JmpIf(OpJLt, 6, 7, "lt")
		b.MovI(0, 1)
		b.Exit()
		b.Label("lt")
		b.Mov(1, 6)
		b.Un(OpAbs, 1, 1)
		b.Call(HelperReport)
		b.MovI(0, 0)
		b.Exit()
		p, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := Certify(p, NumBuiltinHelpers); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	randCell := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.NaN()
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		default:
			return rng.NormFloat64() * 100
		}
	}

	corrupt := func(img []byte) []byte {
		out := append([]byte(nil), img...)
		switch rng.Intn(4) {
		case 0: // single byte flip
			out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		case 1: // burst of flips
			for k := 0; k < 1+rng.Intn(8); k++ {
				out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
			}
		case 2: // truncation
			out = out[:rng.Intn(len(out))]
		default: // splice bytes from the other image
			at := rng.Intn(len(out))
			n := 1 + rng.Intn(16)
			for k := 0; k < n && at+k < len(out); k++ {
				out[at+k] = second[(at+k)%len(second)]
			}
		}
		return out
	}

	const trials = 300
	decodeFail, checkFail, admitted := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		img := base
		if trial%2 == 1 {
			img = second
		}
		data := corrupt(img)
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			decodeFail++
			continue
		}
		if p.Meta != (ProgramMeta{}) {
			t.Fatalf("trial %d: decode granted trust without a check", trial)
		}
		if p.Cert == nil {
			checkFail++ // no proof: loads unverified
			continue
		}
		if err := CheckCertificate(p, NumBuiltinHelpers); err != nil {
			if p.Meta.TrapFree {
				t.Fatalf("trial %d: rejected cert left TrapFree set", trial)
			}
			checkFail++
			continue
		}
		admitted++
		// The checker accepted: the proof must actually hold.
		for run := 0; run < 4; run++ {
			cells := make([]float64, len(p.Symbols))
			for i := range cells {
				cells[i] = randCell()
			}
			arg := randCell()
			var m Machine
			if _, err := m.Run(p, &fuzzEnv{cells: append([]float64(nil), cells...)}, arg); err != nil {
				t.Fatalf("trial %d: admitted image trapped: %v\ncells=%v\n%s", trial, err, cells, p)
			}
			if int(m.Steps) > p.Meta.MaxSteps {
				t.Fatalf("trial %d: %d steps exceed certified bound %d\n%s",
					trial, m.Steps, p.Meta.MaxSteps, p)
			}
		}
	}
	if decodeFail+checkFail < trials/2 {
		t.Fatalf("corruptions too gentle: %d decode failures, %d check failures, %d admitted",
			decodeFail, checkFail, admitted)
	}
	t.Logf("tamper corpus: %d trials — %d decode failures, %d check rejections, %d admitted (all re-proven)",
		trials, decodeFail, checkFail, admitted)
}
