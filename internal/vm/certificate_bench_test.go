package vm

import (
	"bytes"
	"fmt"
	"testing"
)

// buildBenchProgram emits a long chain of branch diamonds: every
// diamond adds a join point where the analyzer merges two machine
// states, while the certificate checker only tests each edge into it
// against the shipped block invariant.
func buildBenchProgram(tb testing.TB, diamonds int) *Program {
	tb.Helper()
	b := NewBuilder("cert-bench")
	b.Load(1, "x")
	b.Load(3, "y")
	b.MovI(2, 0)
	for i := 0; i < diamonds; i++ {
		lbl := fmt.Sprintf("L%d", i)
		b.JmpIfI(OpJGtI, 1, float64(i), lbl)
		b.ALUI(OpAddI, 2, 2, 1)
		b.ALU(OpMin, 2, 2, 3)
		b.Label(lbl)
	}
	b.Mov(0, 2)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchDiamonds sizes the program near the MaxInsns ceiling (~4 insns
// per diamond), the regime where shipping the proof matters most.
const benchDiamonds = 1000

func BenchmarkVerify(b *testing.B) {
	p := buildBenchProgram(b, benchDiamonds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := *p
		q.Meta = ProgramMeta{}
		if err := Verify(&q, NumBuiltinHelpers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckCertificate(b *testing.B) {
	p := buildBenchProgram(b, benchDiamonds)
	if err := Certify(p, NumBuiltinHelpers); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := *p
		q.Meta = ProgramMeta{}
		if err := CheckCertificate(&q, NumBuiltinHelpers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAndCheckCertificate is the full load-time story for a
// shipped image: deserialize plus one linear proof check, the path that
// must beat a full re-analysis.
func BenchmarkDecodeAndCheckCertificate(b *testing.B) {
	p := buildBenchProgram(b, benchDiamonds)
	if err := Certify(p, NumBuiltinHelpers); err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := p.Encode(&img); err != nil {
		b.Fatal(err)
	}
	data := img.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if err := CheckCertificate(q, NumBuiltinHelpers); err != nil {
			b.Fatal(err)
		}
	}
}
