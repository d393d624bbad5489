// Package vm implements the guardrail monitor virtual machine: a small
// register bytecode ISA in the spirit of eBPF, a static verifier that
// guarantees bounded, memory-safe execution, and an interpreter.
//
// Guardrail specifications are compiled (package compile) into Programs
// that the monitor runtime executes at trigger sites inside the
// simulated kernel. The safety argument mirrors eBPF's: programs are
// loop-free (the verifier rejects backward jumps), every path ends in
// EXIT, all register reads are proven initialized, and all feature-store
// cell accesses are bounds-checked against the program's symbol table at
// load time. Values are float64 — guardrail rules are numeric
// predicates — and the truthiness convention is 0 = false, non-zero =
// true, with rule programs returning the property's truth value in R0.
package vm

import (
	"fmt"
	"strings"
)

// NumRegs is the register file size (r0..r15). By convention r0 holds
// return values, r1–r5 hold helper-call arguments (callee-clobbered),
// and r6–r15 are general purpose.
const NumRegs = 16

// MaxInsns bounds program length, like the classic eBPF limit.
const MaxInsns = 4096

// Op is an opcode.
type Op uint8

// Opcodes. Arithmetic is three-address: register-register (suffix
// none, dst = lhs op src), register-immediate (suffix I, dst = lhs op
// imm) or unary (dst = op lhs). Every operand is read before dst is
// written, so any of dst, lhs and src may name the same register; the
// two-address form is the special case lhs == dst. Jumps use relative
// offsets: Off = +n skips the next n instructions (Off >= 1 required
// by the verifier — loop-free programs only).
const (
	OpInvalid Op = iota

	OpMov  // dst = src
	OpMovI // dst = imm

	OpAdd  // dst = lhs + src
	OpAddI // dst = lhs + imm
	OpSub  // dst = lhs - src
	OpSubI // dst = lhs - imm
	OpMul  // dst = lhs * src
	OpMulI // dst = lhs * imm
	OpDiv  // dst = lhs / src (x/0 = 0, eBPF-style)
	OpDivI // dst = lhs / imm (x/0 = 0)
	OpNeg  // dst = -lhs
	OpAbs  // dst = |lhs|
	OpMin  // dst = min(lhs, src)
	OpMax  // dst = max(lhs, src)

	OpNot // dst = !truthy(lhs)        (result 0 or 1)
	OpBoo // dst = truthy(lhs) ? 1 : 0

	OpJmp  // pc += Off
	OpJEq  // if dst == src: pc += Off
	OpJNe  // if dst != src: pc += Off
	OpJLt  // if dst <  src: pc += Off
	OpJLe  // if dst <= src: pc += Off
	OpJGt  // if dst >  src: pc += Off
	OpJGe  // if dst >= src: pc += Off
	OpJEqI // if dst == imm: pc += Off
	OpJNeI // if dst != imm: pc += Off
	OpJLtI // if dst <  imm: pc += Off
	OpJLeI // if dst <= imm: pc += Off
	OpJGtI // if dst >  imm: pc += Off
	OpJGeI // if dst >= imm: pc += Off

	OpLoad  // dst = cells[Cell]         (feature store LOAD)
	OpStore // cells[Cell] = src         (feature store SAVE)

	OpCall // r0 = helper[Imm](r1..r5); clobbers r1-r5
	OpExit // return r0

	opMax // sentinel
)

var opNames = map[Op]string{
	OpMov: "mov", OpMovI: "movi",
	OpAdd: "add", OpAddI: "addi", OpSub: "sub", OpSubI: "subi",
	OpMul: "mul", OpMulI: "muli", OpDiv: "div", OpDivI: "divi",
	OpNeg: "neg", OpAbs: "abs", OpMin: "min", OpMax: "max",
	OpNot: "not", OpBoo: "bool",
	OpJmp: "jmp", OpJEq: "jeq", OpJNe: "jne", OpJLt: "jlt",
	OpJLe: "jle", OpJGt: "jgt", OpJGe: "jge",
	OpJEqI: "jeqi", OpJNeI: "jnei", OpJLtI: "jlti",
	OpJLeI: "jlei", OpJGtI: "jgti", OpJGeI: "jgei",
	OpLoad: "load", OpStore: "store",
	OpCall: "call", OpExit: "exit",
}

// String returns the mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// HelperID identifies a runtime helper callable via OpCall.
type HelperID int

// Built-in helpers. The monitor runtime provides implementations; the
// verifier rejects calls to helpers absent from the load-time helper set.
const (
	// HelperNow returns current kernel time in nanoseconds.
	HelperNow HelperID = iota
	// HelperReport emits a violation report; r1 = violation code.
	HelperReport
	// HelperAction dispatches the bound action with index r1.
	HelperAction
	// HelperSqrt returns sqrt(r1) (0 for negative inputs).
	HelperSqrt
	// HelperLog2 returns log2(r1) (0 for non-positive inputs).
	HelperLog2
	numBuiltinHelpers
)

// NumBuiltinHelpers is the count of built-in helper IDs.
const NumBuiltinHelpers = int(numBuiltinHelpers)

// Instr is a single instruction. Fields are used per-opcode: Dst, Lhs
// and Src are register numbers (Lhs is the left operand of the ALU
// opcodes, and only of those), Imm is an immediate or helper ID
// (OpCall), Off is a relative jump offset, Cell indexes the program
// symbol table. Lhs fills the padding byte after Src, so an Instr is
// 24 bytes.
type Instr struct {
	Op   Op
	Dst  uint8
	Src  uint8
	Lhs  uint8
	Off  int32
	Cell int32
	Imm  float64
}

// Program is a verified-loadable monitor program: code plus the symbol
// table naming the feature-store cells it references. Symbols are
// resolved to store IDs at load time.
type Program struct {
	// Name identifies the program in logs (usually the guardrail name).
	Name string
	// Code is the instruction sequence.
	Code []Instr
	// Symbols names the feature-store cells addressed by OpLoad/OpStore
	// Cell indices.
	Symbols []string
	// Meta records how the program was produced. It is advisory (not part
	// of the serialized image): programs decoded from an image carry a
	// zero Meta until their certificate (if any) passes CheckCertificate
	// or they are re-verified in full.
	Meta ProgramMeta
	// Cert is the program's serializable verification certificate
	// (certificate.go), attached by Certify and carried through
	// Encode/Decode. Unlike Meta it is not trusted: a decoded image's
	// certificate earns its claims only by passing CheckCertificate.
	Cert *Certificate
}

// ProgramMeta is compiler and verifier provenance attached to a
// Program: the optimization level it was built at, the instruction
// counts before and after optimization (for overhead accounting), and
// the verifier's proof outcome. The proof fields are written only by
// Verify and CheckCertificate; a decoded image carries a zero Meta
// until one of them passes. They are certified facts that admission,
// step budgets and provenance consume — the interpreter reads none of
// them and guards every program alike.
type ProgramMeta struct {
	// OptLevel is the compile.Options.Level the program was built at.
	OptLevel int
	// PreOptInsns is the instruction count of the straight-lowered
	// program before any IR passes ran.
	PreOptInsns int
	// PostOptInsns is the final instruction count (len(Code)).
	PostOptInsns int

	// MaxSteps is the verifier-certified worst-case interpreter step
	// count (executed instructions, including the final OpExit) over
	// every path through the program. Zero means unverified.
	MaxSteps int
	// TrapFree records that the abstract interpreter proved the program
	// cannot trap by its own doing (no uninitialized reads, no helper
	// contract violations, bounded by MaxSteps). Helper backends may
	// still fail at runtime (TrapHelper) — that is an environment
	// fault, not a program fault.
	TrapFree bool
	// DivProven records that every division's divisor was proven unable
	// to be ordinary zero, so the x/0 = 0 rule never fires for it.
	DivProven bool
}

// String disassembles the program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %q (%d insns, %d symbols)\n", p.Name, len(p.Code), len(p.Symbols))
	for i, in := range p.Code {
		fmt.Fprintf(&b, "%4d: %s\n", i, p.fmtInstr(in))
	}
	return b.String()
}

// InstrString disassembles the instruction at pc, resolving cell
// indices through the program's symbol table. Out-of-range pcs yield a
// placeholder rather than panicking, so error paths can call it freely.
func (p *Program) InstrString(pc int) string {
	if pc < 0 || pc >= len(p.Code) {
		return fmt.Sprintf("<pc %d outside [0,%d)>", pc, len(p.Code))
	}
	return p.fmtInstr(p.Code[pc])
}

func (p *Program) fmtInstr(in Instr) string {
	cellName := func(c int32) string {
		if int(c) < len(p.Symbols) && c >= 0 {
			return p.Symbols[c]
		}
		return fmt.Sprintf("?%d", c)
	}
	switch in.Op {
	case OpMov:
		return fmt.Sprintf("%-5s r%d, r%d", in.Op, in.Dst, in.Src)
	case OpMovI:
		return fmt.Sprintf("%-5s r%d, %g", in.Op, in.Dst, in.Imm)
	case OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax:
		return fmt.Sprintf("%-5s r%d, r%d, r%d", in.Op, in.Dst, in.Lhs, in.Src)
	case OpAddI, OpSubI, OpMulI, OpDivI:
		return fmt.Sprintf("%-5s r%d, r%d, %g", in.Op, in.Dst, in.Lhs, in.Imm)
	case OpNeg, OpAbs, OpNot, OpBoo:
		return fmt.Sprintf("%-5s r%d, r%d", in.Op, in.Dst, in.Lhs)
	case OpJmp:
		return fmt.Sprintf("%-5s +%d", in.Op, in.Off)
	case OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe:
		return fmt.Sprintf("%-5s r%d, r%d, +%d", in.Op, in.Dst, in.Src, in.Off)
	case OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI:
		return fmt.Sprintf("%-5s r%d, %g, +%d", in.Op, in.Dst, in.Imm, in.Off)
	case OpLoad:
		return fmt.Sprintf("%-5s r%d, [%s]", in.Op, in.Dst, cellName(in.Cell))
	case OpStore:
		return fmt.Sprintf("%-5s [%s], r%d", in.Op, cellName(in.Cell), in.Src)
	case OpCall:
		return fmt.Sprintf("%-5s helper#%d", in.Op, int(in.Imm))
	case OpExit:
		return "exit"
	default:
		return fmt.Sprintf("%-5s ???", in.Op)
	}
}
