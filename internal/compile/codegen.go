package compile

import (
	"fmt"

	"guardrails/internal/vm"
)

// Codegen: IR → VM bytecode. Every IR arithmetic op becomes one
// three-address VM instruction (dst = lhs op src), so no operand is
// copied first. Virtual registers are mapped onto the general-purpose
// file r6..r15 by linear scan over def–last-use intervals, with two
// space optimizations:
//
//   - a constant vreg consumed only by call arguments or a return is
//     never materialized: its value is emitted directly as a movi into
//     the argument/return register;
//   - when an operand dies at the defining instruction, the destination
//     coalesces onto the operand's register, so a chain of temporaries
//     holds one register rather than one each.
//
// Conditional terminators emit the VM's fused compare-and-jump opcodes;
// a branch whose then-target is the next block in layout order inverts
// the comparison so only the else-edge costs an instruction.

// maxGPRegs is the size of the allocatable register file.
const maxGPRegs = regStackTop - regStackBase + 1

// errRegisterFile is genProgram's error when more values are live at
// once than the register file holds; codegen has no spill.
var errRegisterFile = fmt.Errorf("rule needs more than %d live values at once", maxGPRegs)

// vinfo is per-vreg allocation state.
type vinfo struct {
	def      int // linear position of the first defining instruction
	lastUse  int
	nuses    int
	reg      int8 // assigned VM register, -1 until allocated
	mat      bool // needs a register at all
	isConst  bool
	regUse   bool // used somewhere other than a call argument / return
	constVal float64
}

// genProgram emits f as an assembled (but unverified) VM program. It
// never mutates f, so it can be run both before and after the pass
// pipeline to measure what optimization bought.
func genProgram(f *irFunc, name string) (*vm.Program, error) {
	info := make([]vinfo, f.nvregs)
	for i := range info {
		info[i].def, info[i].reg = -1, -1
	}
	useAt := func(v vreg, p int, hard bool) {
		iv := &info[v]
		if p > iv.lastUse {
			iv.lastUse = p
		}
		iv.nuses++
		if hard {
			iv.regUse = true
		}
	}
	defAt := func(v vreg, p int) {
		iv := &info[v]
		if iv.def < 0 {
			iv.def, iv.lastUse = p, p
		} else if p > iv.lastUse {
			// Second definition of a multi-def vreg: the register must
			// stay reserved across the whole diamond.
			iv.lastUse = p
		}
	}

	// Pass 1: positions, intervals, and use contexts.
	pos := 0
	for _, b := range f.blocks {
		for i := range b.ins {
			in := &b.ins[i]
			switch in.Op {
			case irConst, irLoad:
				defAt(in.Dst, pos)
			case irStore:
				useAt(in.A, pos, true)
			case irCall:
				for _, a := range in.Args {
					useAt(a, pos, false)
				}
				defAt(in.Dst, pos)
			case irCopy, irNeg, irAbs, irNot, irBoo, irAddI, irSubI, irMulI, irDivI:
				useAt(in.A, pos, true)
				defAt(in.Dst, pos)
			default: // binary register forms
				useAt(in.A, pos, true)
				useAt(in.B, pos, true)
				defAt(in.Dst, pos)
			}
			pos++
		}
		switch b.term.Kind {
		case termBr:
			useAt(b.term.A, pos, true)
			if !b.term.UseImm {
				useAt(b.term.B, pos, true)
			}
		case termRet:
			useAt(b.term.Ret, pos, false)
		}
		pos++
	}
	for _, b := range f.blocks {
		for _, in := range b.ins {
			if in.Op == irConst && !f.multiDef[in.Dst] {
				info[in.Dst].isConst = true
				info[in.Dst].constVal = in.Imm
			}
		}
	}
	for i := range info {
		iv := &info[i]
		if iv.def < 0 {
			continue
		}
		iv.mat = !(iv.isConst && !iv.regUse)
	}
	for _, b := range f.blocks {
		for _, in := range b.ins {
			// An unused call result needs no register: the mov from r0 is
			// simply not emitted.
			if in.Op == irCall && info[in.Dst].nuses == 0 {
				info[in.Dst].mat = false
			}
		}
	}

	// Pass 2: linear-scan allocation at each first definition.
	var owner [maxGPRegs]vreg
	for i := range owner {
		owner[i] = -1
	}
	allocAt := func(v vreg, p int, ops []vreg) error {
		iv := &info[v]
		if !iv.mat || iv.reg >= 0 {
			return nil
		}
		for r := range owner {
			if w := owner[r]; w >= 0 && info[w].lastUse < p {
				owner[r] = -1
			}
		}
		for _, o := range ops { // coalesce onto a dying operand
			io := &info[o]
			if o != v && io.mat && io.reg >= 0 && io.lastUse <= p &&
				owner[io.reg-regStackBase] == o {
				owner[io.reg-regStackBase] = v
				iv.reg = io.reg
				return nil
			}
		}
		for r := range owner {
			if owner[r] < 0 {
				owner[r] = v
				iv.reg = int8(regStackBase + r)
				return nil
			}
		}
		return errRegisterFile
	}
	pos = 0
	opsBuf := make([]vreg, 0, MaxReportArgs+1)
	for _, b := range f.blocks {
		for i := range b.ins {
			in := &b.ins[i]
			if in.Op != irStore {
				buf := opsBuf[:0]
				switch in.Op {
				case irConst, irLoad:
				case irCall:
					buf = append(buf, in.Args...)
				case irCopy, irNeg, irAbs, irNot, irBoo, irAddI, irSubI, irMulI, irDivI:
					buf = append(buf, in.A)
				default:
					buf = append(buf, in.A, in.B)
				}
				if err := allocAt(in.Dst, pos, buf); err != nil {
					return nil, err
				}
			}
			pos++
		}
		pos++
	}

	// Pass 3: emission.
	bld := vm.NewBuilder(name)
	lbl := func(b *block) string { return fmt.Sprintf("b%d", b.id) }
	rg := func(v vreg) uint8 { return uint8(info[v].reg) }

	for bi, b := range f.blocks {
		bld.Label(lbl(b))
		var next *block
		if bi+1 < len(f.blocks) {
			next = f.blocks[bi+1]
		}
		for i := range b.ins {
			in := &b.ins[i]
			switch in.Op {
			case irConst:
				if info[in.Dst].mat {
					bld.MovI(rg(in.Dst), in.Imm)
				}
			case irLoad:
				bld.Load(rg(in.Dst), in.Sym)
			case irStore:
				bld.Store(in.Sym, rg(in.A))
			case irCopy:
				switch {
				case !info[in.A].mat:
					bld.MovI(rg(in.Dst), info[in.A].constVal)
				case rg(in.Dst) != rg(in.A):
					bld.Mov(rg(in.Dst), rg(in.A))
				}
			case irNeg, irAbs, irNot, irBoo:
				bld.Un(aluOps[in.Op], rg(in.Dst), rg(in.A))
			case irAddI, irSubI, irMulI, irDivI:
				bld.ALUI(aluOps[in.Op], rg(in.Dst), rg(in.A), in.Imm)
			case irCall:
				for j, a := range in.Args {
					argReg := uint8(1 + j)
					if info[a].mat {
						bld.Mov(argReg, rg(a))
					} else {
						bld.MovI(argReg, info[a].constVal)
					}
				}
				bld.Call(in.Helper)
				if info[in.Dst].mat {
					bld.Mov(rg(in.Dst), 0)
				}
			default: // binary register forms
				bld.ALU(aluOps[in.Op], rg(in.Dst), rg(in.A), rg(in.B))
			}
		}
		t := &b.term
		switch t.Kind {
		case termJmp:
			if t.Then != next {
				bld.Jmp(lbl(t.Then))
			}
		case termBr:
			emit := func(c cmpKind, target *block) {
				if t.UseImm {
					bld.JmpIfI(c.jumpOp(true), rg(t.A), t.Imm, lbl(target))
				} else {
					bld.JmpIf(c.jumpOp(false), rg(t.A), rg(t.B), lbl(target))
				}
			}
			switch {
			case t.Then == next:
				emit(t.Cmp.invert(), t.Else)
			case t.Else == next:
				emit(t.Cmp, t.Then)
			default:
				emit(t.Cmp, t.Then)
				bld.Jmp(lbl(t.Else))
			}
		case termRet:
			if info[t.Ret].mat {
				bld.Mov(0, rg(t.Ret))
			} else {
				bld.MovI(0, info[t.Ret].constVal)
			}
			bld.Exit()
		default:
			return nil, fmt.Errorf("internal error: unterminated block b%d", b.id)
		}
	}
	return bld.Finish()
}
