package vm

import (
	"math"
	"testing"
	"unsafe"
)

// aluOpcodes lists every ALU opcode: register, immediate and unary forms.
var aluOpcodes = []Op{
	OpAdd, OpAddI, OpSub, OpSubI, OpMul, OpMulI, OpDiv, OpDivI,
	OpNeg, OpAbs, OpMin, OpMax, OpNot, OpBoo,
}

func immForm(op Op) bool {
	switch op {
	case OpAddI, OpSubI, OpMulI, OpDivI:
		return true
	}
	return false
}

// TestThreeAddressAliasing runs every ALU opcode under every way its
// three registers can alias — dst == lhs, dst == src, lhs == src, all
// three equal, all three distinct — and checks the interpreter against
// Eval, and the abstract transfer against the interpreter. Each
// program sets src to y, then lhs to x (so lhs == src reads x twice),
// runs the op, and returns one of the three registers: dst must hold
// the result, and a register the op does not write must keep its value.
func TestThreeAddressAliasing(t *testing.T) {
	type regs struct {
		name          string
		dst, lhs, src uint8
	}
	shapes := []regs{
		{"distinct", 6, 7, 8},
		{"dst=lhs", 6, 6, 8},
		{"dst=src", 6, 7, 6},
		{"lhs=src", 6, 7, 7},
		{"all-equal", 6, 6, 6},
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, op := range aluOpcodes {
		for _, sh := range shapes {
			for _, x := range vals {
				for _, y := range vals {
					// What the op reads: lhs holds x; the second operand is
					// the immediate y, or src, which holds x when it is lhs.
					b := y
					if !immForm(op) && sh.src == sh.lhs {
						b = x
					}
					want := Eval(op, x, b)
					for _, probe := range []uint8{sh.dst, sh.lhs, sh.src} {
						expect := y
						switch probe {
						case sh.dst:
							expect = want
						case sh.lhs:
							expect = x
						}
						p := &Program{Name: "alias", Code: []Instr{
							{Op: OpMovI, Dst: sh.src, Imm: y},
							{Op: OpMovI, Dst: sh.lhs, Imm: x},
							{Op: op, Dst: sh.dst, Lhs: sh.lhs, Src: sh.src, Imm: y},
							{Op: OpMov, Dst: 0, Src: probe},
							{Op: OpExit},
						}}
						var m Machine
						got, err := m.Run(p, nil, 0)
						if err != nil {
							t.Fatalf("%v %s x=%v y=%v: %v", op, sh.name, x, y, err)
						}
						if !same(got, expect) {
							t.Fatalf("%v %s x=%v y=%v: r%d = %v, want %v\n%s", op, sh.name, x, y, probe, got, expect, p)
						}
						a, err := AnalyzeWith(p, NumBuiltinHelpers, nil)
						if err != nil {
							// The only rejection a constant program earns is a
							// division by a provable zero.
							if (op == OpDiv || op == OpDivI) && b == 0 {
								continue
							}
							t.Fatalf("%v %s x=%v y=%v: analysis rejected: %v\n%s", op, sh.name, x, y, err, p)
						}
						r0 := a.Exits[0].R0
						if math.IsNaN(got) && !r0.NaN || !math.IsNaN(got) && !(r0.Num && r0.Lo <= got && got <= r0.Hi) {
							t.Fatalf("%v %s x=%v y=%v: r%d = %v outside the certified %+v\n%s", op, sh.name, x, y, probe, got, r0, p)
						}
					}
				}
			}
		}
	}
}

// TestInstrSize pins the instruction's size: the lhs operand lives in
// what was padding, so the three-address ISA costs no cache footprint.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 24 {
		t.Errorf("Instr is %d bytes, want 24", n)
	}
}
