package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// Native fuzz targets. Both run as ordinary tests over the checked-in
// corpus under testdata/fuzz/ on every `go test`, and CI additionally
// runs each with a short -fuzztime budget to mine new inputs.

// tamperFixtureImage builds a certified, encoded image for the tamper
// fuzzer to mutate.
func tamperFixtureImage(tb testing.TB) []byte {
	tb.Helper()
	b := NewBuilder("tamper-fixture")
	b.Load(6, "a")
	b.Load(7, "b")
	b.JmpIf(OpJLt, 6, 7, "low")
	b.Mov(1, 6)
	b.ALU(OpDiv, 1, 1, 7)
	b.Un(OpAbs, 1, 1)
	b.Call(HelperReport)
	b.MovI(0, 0)
	b.Store("out", 0)
	b.Exit()
	b.Label("low")
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	if err := Certify(p, NumBuiltinHelpers); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// adversarialCells returns hostile feature-store contents: the values
// most likely to expose an unsound admitted proof.
func adversarialCells(n int) [][]float64 {
	specials := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -1e300}
	out := make([][]float64, 0, len(specials))
	for _, v := range specials {
		cells := make([]float64, n)
		for i := range cells {
			cells[i] = v
		}
		out = append(out, cells)
	}
	return out
}

// FuzzCertificateTamper feeds arbitrary bytes to the image loader. The
// invariant: whatever the bytes, the loader either rejects the image or
// admits a program whose certificate actually holds — trap-free
// execution within the certified step bound on adversarial feature
// stores. Admitting a tampered proof is the one unacceptable outcome.
func FuzzCertificateTamper(f *testing.F) {
	img := tamperFixtureImage(f)
	f.Add(img)
	for _, cut := range []int{0, 5, 7, len(img) / 2, len(img) - 1} {
		f.Add(append([]byte(nil), img[:cut]...))
	}
	for _, pos := range []int{6, 12, 24, len(img) / 2, len(img) - 2} {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected at deserialization: fine
		}
		if err := CheckCertificate(p, NumBuiltinHelpers); err != nil {
			return // certificate rejected: fine
		}
		if !p.Meta.TrapFree || p.Meta.MaxSteps <= 0 {
			t.Fatalf("admitted certificate left no proof: %+v", p.Meta)
		}
		for _, cells := range adversarialCells(len(p.Symbols)) {
			var m Machine
			if _, err := m.Run(p, &fuzzEnv{cells: append([]float64(nil), cells...)}, cells[0]); err != nil {
				t.Fatalf("admitted certificate on trapping program: %v\ncells=%v\n%s", err, cells, p)
			}
			if int(m.Steps) > p.Meta.MaxSteps {
				t.Fatalf("run took %d steps, certificate promised ≤ %d\n%s", m.Steps, p.Meta.MaxSteps, p)
			}
		}
	})
}

// fuzzOps is the opcode alphabet the byte-stream decoder draws from.
var fuzzOps = []Op{
	OpMov, OpMovI, OpAdd, OpAddI, OpSub, OpSubI, OpMul, OpMulI,
	OpDiv, OpDivI, OpNeg, OpAbs, OpMin, OpMax, OpNot, OpBoo,
	OpJmp, OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe,
	OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI,
	OpLoad, OpStore, OpCall, OpExit,
}

// programFromBytes decodes a fuzz input as an instruction stream, six
// bytes per instruction, and terminates it with EXIT. The mapping is
// total: every byte string decodes to some program, so the fuzzer
// explores program space rather than fighting a parser. The second
// byte's low nibble is dst and its high nibble is xored into dst to
// give lhs, so a byte below 16 decodes to the two-address form lhs ==
// dst: inputs written before the ISA had an lhs operand (every
// checked-in corpus file) decode to the programs they always did.
func programFromBytes(data []byte) *Program {
	symbols := []string{"a", "b", "c"}
	n := len(data) / 6
	if n > 64 {
		n = 64
	}
	code := make([]Instr, 0, n+1)
	for i := 0; i < n; i++ {
		b := data[i*6 : i*6+6]
		in := Instr{
			Op:  fuzzOps[int(b[0])%len(fuzzOps)],
			Dst: b[1] & 0x0f,
			Lhs: (b[1] ^ b[1]>>4) & 0x0f,
			Src: b[2] & 0x0f,
		}
		switch b[5] % 6 {
		case 0:
			in.Imm = 0
		case 1:
			in.Imm = math.NaN()
		case 2:
			in.Imm = math.Inf(1)
		case 3:
			in.Imm = -1
		default:
			in.Imm = float64(int(b[5]) - 128)
		}
		switch in.Op {
		case OpJmp, OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe,
			OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI:
			in.Off = 1 + int32(b[3])%int32(n-i) // forward, in range
		case OpLoad, OpStore:
			in.Cell = int32(b[4]) % int32(len(symbols))
		case OpCall:
			in.Imm = float64(int(b[4]) % NumBuiltinHelpers)
		}
		code = append(code, in)
	}
	code = append(code, Instr{Op: OpExit})
	return &Program{Name: "fuzz", Code: code, Symbols: symbols}
}

// FuzzVerifierSoundness decodes arbitrary bytes into a program and
// checks the verifier's soundness contract on every acceptance: the
// program must run trap-free within the certified step bound on hostile
// feature stores. Rejections must carry a reason (checked cheaply here; the
// richer generator in TestVerifierSoundnessFuzz covers rejection
// quality).
func FuzzVerifierSoundness(f *testing.F) {
	f.Add([]byte{})
	// LOAD a; DIV by b; EXIT — the canonical trap candidate.
	f.Add([]byte{
		29, 1, 0, 0, 0, 200, // LOAD r1, cell 0
		8, 1, 2, 0, 1, 130, // DIV r1, r2
		32, 0, 0, 0, 0, 0, // EXIT
	})
	// Three-address ALU ops: three distinct operands, then lhs == src.
	f.Add([]byte{
		1, 1, 0, 0, 0, 136, // MOVI r1, 8
		4, 0x22, 1, 0, 0, 0, // SUB r2, r0, r1
		8, 0x31, 2, 0, 0, 0, // DIV r1, r2, r2
		32, 0, 0, 0, 0, 0, // EXIT
	})
	// Forward branch diamond.
	f.Add([]byte{
		19, 1, 2, 1, 0, 140, // JLT +1
		1, 0, 0, 0, 0, 133, // MOVI
		32, 0, 0, 0, 0, 0, // EXIT
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := programFromBytes(data)
		if err := Verify(p, NumBuiltinHelpers); err != nil {
			if err.Error() == "" {
				t.Fatalf("empty rejection reason\n%s", p)
			}
			return
		}
		if !p.Meta.TrapFree || p.Meta.MaxSteps <= 0 {
			t.Fatalf("accepted program has no proof: %+v", p.Meta)
		}
		for _, cells := range adversarialCells(len(p.Symbols)) {
			var m Machine
			if _, err := m.Run(p, &fuzzEnv{cells: append([]float64(nil), cells...)}, cells[0]); err != nil {
				t.Fatalf("verified program trapped: %v\ncells=%v\n%s", err, cells, p)
			}
			if int(m.Steps) > p.Meta.MaxSteps {
				t.Fatalf("run took %d steps, bound is %d\n%s", m.Steps, p.Meta.MaxSteps, p)
			}
		}
	})
}

// rawProgram decodes a fuzz input as a program that never meets the
// verifier: 20 bytes per instruction (opcode, dst, src, lhs, then Off
// and Cell as little-endian int32 and Imm as float64 bits), every field
// taken as it comes, up to 64 instructions and no EXIT appended.
func rawProgram(data []byte) *Program {
	const width = 20
	n := min(len(data)/width, 64)
	code := make([]Instr, n)
	for i := range code {
		b := data[i*width : (i+1)*width]
		code[i] = Instr{
			Op: Op(b[0]), Dst: b[1], Src: b[2], Lhs: b[3],
			Off:  int32(binary.LittleEndian.Uint32(b[4:])),
			Cell: int32(binary.LittleEndian.Uint32(b[8:])),
			Imm:  math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
		}
	}
	return &Program{Name: "raw", Code: code, Symbols: []string{"a", "b", "c"}}
}

// rawEnv is an Env for unverified programs: a cell outside the store
// reads 0 and takes no write, and every helper id answers, one in
// four with an error (a TrapHelper).
type rawEnv struct{ cells [3]float64 }

func (e *rawEnv) LoadCell(i int32) float64 {
	if i < 0 || int(i) >= len(e.cells) {
		return 0
	}
	return e.cells[i]
}

func (e *rawEnv) StoreCell(i int32, v float64) {
	if i >= 0 && int(i) < len(e.cells) {
		e.cells[i] = v
	}
}

func (e *rawEnv) Helper(h HelperID, args *[5]float64) (float64, error) {
	if h%4 == 3 {
		return 0, errors.New("helper failed")
	}
	return args[0] + float64(h), nil
}

// rawInstr encodes one instruction the way rawProgram decodes it.
func rawInstr(in Instr) []byte {
	b := []byte{byte(in.Op), in.Dst, in.Src, in.Lhs}
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Off))
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Cell))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Imm))
}

// FuzzRunRaw holds Machine.Run to its promise for programs nobody
// verified: any opcode, register, offset, cell or immediate either
// returns a value or a classified *Trap, never panics, and executes at
// most len(code)+1 steps.
func FuzzRunRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(rawInstr(Instr{Op: OpMovI, Dst: 16, Imm: 1}), rawInstr(Instr{Op: OpExit})...))
	f.Add(append(rawInstr(Instr{Op: OpAdd, Dst: 255, Lhs: 200, Src: 17}), rawInstr(Instr{Op: OpJmp, Off: -2})...))
	f.Add(append(rawInstr(Instr{Op: OpLoad, Dst: 1, Cell: -7}), rawInstr(Instr{Op: OpCall, Imm: math.NaN()})...))
	f.Add(rawInstr(Instr{Op: Op(250)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := rawProgram(data)
		var m Machine
		_, err := m.Run(p, &rawEnv{cells: [3]float64{1, math.NaN(), -1}}, 0.5)
		var trap *Trap
		if err != nil && !errors.As(err, &trap) {
			t.Fatalf("unclassified error %v\n%s", err, p)
		}
		if m.Steps > uint64(len(p.Code)+1) {
			t.Fatalf("%d steps for %d instructions\n%s", m.Steps, len(p.Code), p)
		}
	})
}
