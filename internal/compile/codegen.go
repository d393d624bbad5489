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
	call     bool // defined by a helper call
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

	// Pass 1: positions, intervals, and use contexts. ncode bounds the
	// emitted length: a call adds its argument moves and the result
	// move, and a terminator emits at most two instructions. nsym bounds
	// the symbol table.
	pos, ncode, nsym := 0, 0, 0
	for _, b := range f.blocks {
		for i := range b.ins {
			in := &b.ins[i]
			switch in.Op {
			case irConst:
				defAt(in.Dst, pos)
				if !f.multiDef[in.Dst] {
					info[in.Dst].isConst = true
					info[in.Dst].constVal = in.Imm
				}
			case irLoad:
				defAt(in.Dst, pos)
				nsym++
			case irStore:
				useAt(in.A, pos, true)
				nsym++
			case irCall:
				for _, a := range in.Args {
					useAt(a, pos, false)
				}
				defAt(in.Dst, pos)
				info[in.Dst].call = true
				ncode += len(in.Args) + 1
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
		ncode += len(b.ins) + 2
	}
	for i := range info {
		iv := &info[i]
		if iv.def < 0 {
			continue
		}
		// An unused call result needs no register: the mov from r0 is
		// simply not emitted.
		iv.mat = !(iv.isConst && !iv.regUse) && !(iv.call && iv.nuses == 0)
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

	// Pass 3: emission, straight into the program's code. A jump's
	// offset is patched once every block's start pc is known.
	type jump struct{ pc, target int }
	jumps := make([]jump, 0, 2*len(f.blocks))
	starts := make([]int, len(f.blocks))
	prog := &vm.Program{Name: name, Code: make([]vm.Instr, 0, ncode)}
	if nsym > 0 {
		prog.Symbols = make([]string, 0, nsym)
	}
	emit := func(in vm.Instr) { prog.Code = append(prog.Code, in) }
	jumpTo := func(in vm.Instr, target *block) {
		jumps = append(jumps, jump{len(prog.Code), target.id})
		emit(in)
	}
	sym := func(key string) int32 {
		for i, s := range prog.Symbols {
			if s == key {
				return int32(i)
			}
		}
		prog.Symbols = append(prog.Symbols, key)
		return int32(len(prog.Symbols) - 1)
	}
	rg := func(v vreg) uint8 { return uint8(info[v].reg) }
	movi := func(dst uint8, imm float64) { emit(vm.Instr{Op: vm.OpMovI, Dst: dst, Imm: imm}) }
	mov := func(dst, src uint8) { emit(vm.Instr{Op: vm.OpMov, Dst: dst, Src: src}) }

	for bi, b := range f.blocks {
		starts[bi] = len(prog.Code)
		var next *block
		if bi+1 < len(f.blocks) {
			next = f.blocks[bi+1]
		}
		for i := range b.ins {
			in := &b.ins[i]
			switch in.Op {
			case irConst:
				if info[in.Dst].mat {
					movi(rg(in.Dst), in.Imm)
				}
			case irLoad:
				emit(vm.Instr{Op: vm.OpLoad, Dst: rg(in.Dst), Cell: sym(in.Sym)})
			case irStore:
				emit(vm.Instr{Op: vm.OpStore, Src: rg(in.A), Cell: sym(in.Sym)})
			case irCopy:
				switch {
				case !info[in.A].mat:
					movi(rg(in.Dst), info[in.A].constVal)
				case rg(in.Dst) != rg(in.A):
					mov(rg(in.Dst), rg(in.A))
				}
			case irNeg, irAbs, irNot, irBoo:
				emit(vm.Instr{Op: aluOps[in.Op], Dst: rg(in.Dst), Lhs: rg(in.A)})
			case irAddI, irSubI, irMulI, irDivI:
				emit(vm.Instr{Op: aluOps[in.Op], Dst: rg(in.Dst), Lhs: rg(in.A), Imm: in.Imm})
			case irCall:
				for j, a := range in.Args {
					argReg := uint8(1 + j)
					if info[a].mat {
						mov(argReg, rg(a))
					} else {
						movi(argReg, info[a].constVal)
					}
				}
				emit(vm.Instr{Op: vm.OpCall, Imm: float64(in.Helper)})
				if info[in.Dst].mat {
					mov(rg(in.Dst), 0)
				}
			default: // binary register forms
				emit(vm.Instr{Op: aluOps[in.Op], Dst: rg(in.Dst), Lhs: rg(in.A), Src: rg(in.B)})
			}
		}
		t := &b.term
		switch t.Kind {
		case termJmp:
			if t.Then != next {
				jumpTo(vm.Instr{Op: vm.OpJmp}, t.Then)
			}
		case termBr:
			branch := func(c cmpKind, target *block) {
				if t.UseImm {
					jumpTo(vm.Instr{Op: c.jumpOp(true), Dst: rg(t.A), Imm: t.Imm}, target)
				} else {
					jumpTo(vm.Instr{Op: c.jumpOp(false), Dst: rg(t.A), Src: rg(t.B)}, target)
				}
			}
			switch {
			case t.Then == next:
				branch(t.Cmp.invert(), t.Else)
			case t.Else == next:
				branch(t.Cmp, t.Then)
			default:
				branch(t.Cmp, t.Then)
				jumpTo(vm.Instr{Op: vm.OpJmp}, t.Else)
			}
		case termRet:
			if info[t.Ret].mat {
				mov(0, rg(t.Ret))
			} else {
				movi(0, info[t.Ret].constVal)
			}
			emit(vm.Instr{Op: vm.OpExit})
		default:
			return nil, fmt.Errorf("internal error: unterminated block b%d", b.id)
		}
	}
	for _, j := range jumps {
		off := -1
		if j.target >= 0 && j.target < len(starts) {
			off = starts[j.target] - j.pc - 1
		}
		if off < 1 {
			return nil, fmt.Errorf("internal error: jump at pc=%d to b%d is not strictly forward", j.pc, j.target)
		}
		prog.Code[j.pc].Off = int32(off)
	}
	return prog, nil
}
