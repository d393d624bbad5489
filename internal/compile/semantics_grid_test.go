package compile

import (
	"math"
	"testing"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// The semantics grid: everything that evaluates an opcode or a pure
// helper on constants — the -O1 folder (passConstFold), ConstEval and
// vm.ReplayProgram — must agree bit-for-bit with Machine.Run executing
// the unfolded instruction, on the operands where private restatements
// of VM arithmetic historically drifted (x/0, NaN compares, signed
// zeros, clamped helpers, overflow, denormals).

var gridValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, math.MaxFloat64,
}

// gridEnv serves the two operands as cells a and b.
type gridEnv struct{ cells [2]float64 }

func (e *gridEnv) LoadCell(i int32) float64 { return e.cells[i] }
func (e *gridEnv) StoreCell(int32, float64) {}
func (e *gridEnv) Helper(h vm.HelperID, args *[5]float64) (float64, error) {
	v, _ := vm.PureHelper(h, args[0])
	return v, nil
}

// gridProgram wraps one instruction so that it runs on operands loaded
// from cells a and b: ALU ops return the new dst, conditional jumps 1
// if taken and 0 if not, helper calls their r0.
func gridProgram(in vm.Instr) *vm.Program {
	code := []vm.Instr{
		{Op: vm.OpLoad, Dst: 6, Cell: 0},
		{Op: vm.OpLoad, Dst: 7, Cell: 1},
	}
	switch {
	case in.Op == vm.OpCall:
		code = append(code, vm.Instr{Op: vm.OpMov, Dst: 1, Src: 6}, in, vm.Instr{Op: vm.OpExit})
	case in.Op >= vm.OpJEq && in.Op <= vm.OpJGeI: // compare-and-jump
		in.Off = 2
		code = append(code, in,
			vm.Instr{Op: vm.OpMovI, Dst: 0, Imm: 0}, vm.Instr{Op: vm.OpExit},
			vm.Instr{Op: vm.OpMovI, Dst: 0, Imm: 1}, vm.Instr{Op: vm.OpExit})
	default:
		code = append(code, in, vm.Instr{Op: vm.OpMov, Dst: 0, Src: 6}, vm.Instr{Op: vm.OpExit})
	}
	return &vm.Program{Name: "grid", Code: code, Symbols: []string{"a", "b"}}
}

// foldIR builds a one-block function computing in over constants a and
// b, runs the constant folder, and returns what the instruction (or,
// for in == nil, the branch terminator br) folded to.
func foldIR(t *testing.T, in *irInstr, br terminator, a, b float64) float64 {
	t.Helper()
	f := newIRFunc("grid")
	va, vb, dst := f.newVReg(), f.newVReg(), f.newVReg()
	blk, then, els := f.place(f.newBlock()), f.place(f.newBlock()), f.place(f.newBlock())
	blk.ins = []irInstr{{Op: irConst, Dst: va, Imm: a}, {Op: irConst, Dst: vb, Imm: b}}
	if in != nil {
		ins := *in
		ins.Dst, ins.A, ins.B = dst, va, vb
		if ins.Op == irCall {
			ins.Args = []vreg{va}
		}
		blk.ins = append(blk.ins, ins)
		blk.term = terminator{Kind: termRet, Ret: dst}
		passConstFold(f)
		if got := blk.ins[2]; got.Op == irConst {
			return got.Imm
		}
		t.Fatalf("%s not folded over constants", ins)
	}
	br.Kind, br.A, br.B, br.Then, br.Else = termBr, va, vb, then, els
	blk.term = br
	passConstFold(f)
	switch {
	case blk.term.Kind != termJmp:
		t.Fatalf("br%s not folded over constants", br.Cmp)
	case blk.term.Then == then:
		return 1
	}
	return 0
}

func lit(v float64) spec.Expr { return &spec.NumLit{Value: v} }

func binExpr(op spec.TokenKind) func(a, b float64) spec.Expr {
	return func(a, b float64) spec.Expr { return &spec.BinaryExpr{Op: op, X: lit(a), Y: lit(b)} }
}

func unExpr(op spec.TokenKind) func(a, b float64) spec.Expr {
	return func(a, _ float64) spec.Expr { return &spec.UnaryExpr{Op: op, X: lit(a)} }
}

func callExpr(fn string, nargs int) func(a, b float64) spec.Expr {
	return func(a, b float64) spec.Expr {
		return &spec.CallExpr{Fn: fn, Args: []spec.Expr{lit(a), lit(b)}[:nargs]}
	}
}

func TestSemanticsGrid(t *testing.T) {
	type row struct {
		name string
		in   vm.Instr                     // the unfolded instruction (dst r6, src r7, imm b)
		fold func(a, b float64) float64   // the -O1 folder on the same operation
		ast  func(a, b float64) spec.Expr // its spec-level spelling; nil if none
	}
	var rows []row
	covered := map[vm.Op]bool{}
	add := func(r row) {
		rows = append(rows, r)
		covered[r.in.Op] = true
	}

	alu := []struct {
		ir  irOp
		ast func(a, b float64) spec.Expr
	}{
		{irNeg, unExpr(spec.TokMinus)}, {irNot, unExpr(spec.TokNot)},
		{irAbs, callExpr("abs", 1)}, {irBoo, nil},
		{irAdd, binExpr(spec.TokPlus)}, {irSub, binExpr(spec.TokMinus)},
		{irMul, binExpr(spec.TokStar)}, {irDiv, binExpr(spec.TokSlash)},
		{irMin, callExpr("min", 2)}, {irMax, callExpr("max", 2)},
		{irAddI, binExpr(spec.TokPlus)}, {irSubI, binExpr(spec.TokMinus)},
		{irMulI, binExpr(spec.TokStar)}, {irDivI, binExpr(spec.TokSlash)},
	}
	for _, o := range alu {
		add(row{
			name: o.ir.String(),
			in:   vm.Instr{Op: aluOps[o.ir], Dst: 6, Lhs: 6, Src: 7},
			fold: func(a, b float64) float64 {
				return foldIR(t, &irInstr{Op: o.ir, Imm: b}, terminator{}, a, b)
			},
			ast: o.ast,
		})
	}
	cmps := []struct {
		c   cmpKind
		tok spec.TokenKind
	}{
		{cmpLt, spec.TokLt}, {cmpLe, spec.TokLe}, {cmpGt, spec.TokGt},
		{cmpGe, spec.TokGe}, {cmpEq, spec.TokEq}, {cmpNe, spec.TokNe},
	}
	for _, c := range cmps {
		for _, imm := range []bool{false, true} {
			add(row{
				name: "br" + c.c.String() + map[bool]string{false: "", true: "i"}[imm],
				in:   vm.Instr{Op: c.c.jumpOp(imm), Dst: 6, Src: 7},
				fold: func(a, b float64) float64 {
					return foldIR(t, nil, terminator{Cmp: c.c, UseImm: imm, Imm: b}, a, b)
				},
				ast: binExpr(c.tok),
			})
		}
	}
	for _, h := range []vm.HelperID{vm.HelperSqrt, vm.HelperLog2} {
		fn := map[vm.HelperID]string{vm.HelperSqrt: "sqrt", vm.HelperLog2: "log2"}[h]
		rows = append(rows, row{
			name: fn,
			in:   vm.Instr{Op: vm.OpCall, Imm: float64(h)},
			fold: func(a, b float64) float64 {
				return foldIR(t, &irInstr{Op: irCall, Helper: h}, terminator{}, a, b)
			},
			ast: callExpr(fn, 1),
		})
	}

	for op := vm.OpAdd; op <= vm.OpJGeI; op++ {
		if op != vm.OpJmp && !covered[op] {
			t.Errorf("grid misses opcode %v", op)
		}
	}

	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for _, r := range rows {
		for _, a := range gridValues {
			for _, b := range gridValues {
				in := r.in
				if in.Op != vm.OpCall {
					in.Imm = b
				}
				p := gridProgram(in)
				var m vm.Machine
				want, err := m.Run(p, &gridEnv{cells: [2]float64{a, b}}, 0)
				if err != nil {
					t.Fatalf("%s(%v, %v): %v", r.name, a, b, err)
				}
				check := func(who string, got float64) {
					if !same(got, want) {
						t.Errorf("%s(%v, %v): %s says %v, Machine.Run says %v", r.name, a, b, who, got, want)
					}
				}
				check("constant folder", r.fold(a, b))
				check("ReplayProgram", vm.ReplayProgram(p, map[string]float64{"a": a, "b": b}, 0, 0).R0)
				if r.ast != nil {
					got, ok := ConstEval(r.ast(a, b))
					if !ok {
						t.Fatalf("%s(%v, %v): ConstEval does not fold it", r.name, a, b)
					}
					check("ConstEval", got)
				}
			}
		}
	}
}
