package compile

import (
	"fmt"
	"strings"

	"guardrails/internal/vm"
)

// This file defines the compiler's linear IR: the representation between
// the checked AST and VM bytecode that the optimization passes
// (passes.go) rewrite. The IR is a forward-only CFG of basic blocks over
// an unbounded set of virtual registers. Values are SSA by construction
// with one deliberate exception: boolean materialization (a predicate
// used in value position) assigns its result vreg in two arms of a
// diamond; such vregs are recorded in irFunc.multiDef and the passes
// treat them as opaque.

// vreg is a virtual register. Codegen maps vregs onto the VM's general
// purpose registers r6..r15 by linear scan.
type vreg int32

// irOp is an IR instruction opcode. Straight-line instructions only;
// control flow lives in block terminators.
type irOp uint8

const (
	irConst irOp = iota // Dst = Imm
	irLoad              // Dst = LOAD(Sym)
	irStore             // SAVE(Sym) = A
	irCopy              // Dst = A
	irNeg               // Dst = -A
	irAbs               // Dst = |A|
	irNot               // Dst = !truthy(A)
	irBoo               // Dst = truthy(A) ? 1 : 0
	irAdd               // Dst = A + B
	irSub               // Dst = A - B
	irMul               // Dst = A * B
	irDiv               // Dst = A / B (x/0 = 0, VM semantics)
	irMin               // Dst = min(A, B)
	irMax               // Dst = max(A, B)
	irAddI              // Dst = A + Imm   (immediate selection)
	irSubI              // Dst = A - Imm
	irMulI              // Dst = A * Imm
	irDivI              // Dst = A / Imm
	irCall              // Dst = Helper(Args...)
)

var irOpNames = [...]string{
	irConst: "const", irLoad: "load", irStore: "store", irCopy: "copy",
	irNeg: "neg", irAbs: "abs", irNot: "not", irBoo: "bool",
	irAdd: "add", irSub: "sub", irMul: "mul", irDiv: "div",
	irMin: "min", irMax: "max",
	irAddI: "addi", irSubI: "subi", irMulI: "muli", irDivI: "divi",
	irCall: "call",
}

func (o irOp) String() string {
	if int(o) < len(irOpNames) {
		return irOpNames[o]
	}
	return fmt.Sprintf("irop(%d)", uint8(o))
}

// aluOps maps each IR arithmetic op onto the VM opcode codegen emits for
// it and the constant folder evaluates it with (vm.Eval).
var aluOps = [...]vm.Op{
	irNeg: vm.OpNeg, irAbs: vm.OpAbs, irNot: vm.OpNot, irBoo: vm.OpBoo,
	irAdd: vm.OpAdd, irSub: vm.OpSub, irMul: vm.OpMul, irDiv: vm.OpDiv,
	irMin: vm.OpMin, irMax: vm.OpMax,
	irAddI: vm.OpAddI, irSubI: vm.OpSubI, irMulI: vm.OpMulI, irDivI: vm.OpDivI,
}

// irInstr is one straight-line IR instruction. Field use is per-opcode;
// unary ops read A, binary ops read A and B, immediate forms read A and
// Imm, irCall reads Args.
type irInstr struct {
	Op     irOp
	Dst    vreg
	A, B   vreg
	Imm    float64
	Sym    string // irLoad / irStore
	Helper vm.HelperID
	Args   []vreg // irCall
}

// cmpKind is a comparison in a conditional branch terminator.
type cmpKind uint8

const (
	cmpLt cmpKind = iota
	cmpLe
	cmpGt
	cmpGe
	cmpEq
	cmpNe
)

var cmpNames = [...]string{cmpLt: "lt", cmpLe: "le", cmpGt: "gt", cmpGe: "ge", cmpEq: "eq", cmpNe: "ne"}

func (c cmpKind) String() string { return cmpNames[c] }

// invert returns the comparison taken when this one is false.
func (c cmpKind) invert() cmpKind {
	switch c {
	case cmpLt:
		return cmpGe
	case cmpLe:
		return cmpGt
	case cmpGt:
		return cmpLe
	case cmpGe:
		return cmpLt
	case cmpEq:
		return cmpNe
	default:
		return cmpEq
	}
}

// swap returns the comparison with its operands exchanged (a<b ≡ b>a).
func (c cmpKind) swap() cmpKind {
	switch c {
	case cmpLt:
		return cmpGt
	case cmpLe:
		return cmpGe
	case cmpGt:
		return cmpLt
	case cmpGe:
		return cmpLe
	default: // eq/ne are symmetric
		return c
	}
}

// jumpOp returns the VM conditional jump taken when the comparison
// holds, in register (imm=false) or immediate (imm=true) form.
func (c cmpKind) jumpOp(imm bool) vm.Op {
	if imm {
		return [...]vm.Op{cmpLt: vm.OpJLtI, cmpLe: vm.OpJLeI, cmpGt: vm.OpJGtI, cmpGe: vm.OpJGeI, cmpEq: vm.OpJEqI, cmpNe: vm.OpJNeI}[c]
	}
	return [...]vm.Op{cmpLt: vm.OpJLt, cmpLe: vm.OpJLe, cmpGt: vm.OpJGt, cmpGe: vm.OpJGe, cmpEq: vm.OpJEq, cmpNe: vm.OpJNe}[c]
}

// termKind discriminates block terminators.
type termKind uint8

const (
	termNone termKind = iota // unterminated (only during lowering)
	termJmp                  // goto Then
	termBr                   // if (A Cmp B | A Cmp Imm) goto Then else goto Else
	termRet                  // return Ret (in r0)
)

// terminator ends a basic block. All edges point to blocks placed later
// in layout order, preserving the VM's forward-only jump discipline.
type terminator struct {
	Kind       termKind
	Cmp        cmpKind
	A, B       vreg
	Imm        float64
	UseImm     bool // B is unused; compare A against Imm
	Then, Else *block
	Ret        vreg
}

// block is a basic block: straight-line instructions plus a terminator.
type block struct {
	id   int // layout position, assigned by irFunc.place
	ins  []irInstr
	term terminator
}

// irFunc is one guardrail's IR: blocks in layout order (entry first, all
// branch edges forward) plus virtual-register bookkeeping.
type irFunc struct {
	name   string
	blocks []*block
	nvregs int
	// multiDef marks vregs assigned in more than one block (boolean
	// materialization diamonds); nil until lowering makes the first.
	// Passes must not constant-track, CSE, or copy-propagate through
	// them.
	multiDef map[vreg]bool
	slab     []block // newBlock's current slab
}

func newIRFunc(name string) *irFunc {
	return &irFunc{name: name, blocks: make([]*block, 0, 8)}
}

func (f *irFunc) newVReg() vreg {
	v := vreg(f.nvregs)
	f.nvregs++
	return v
}

// newBlock creates an unplaced block. Blocks enter the layout (and get
// their id) via place, so lowering can create join targets early and
// still emit a strictly forward layout. They are carved from slabs of
// four rather than allocated one at a time.
func (f *irFunc) newBlock() *block {
	if len(f.slab) == cap(f.slab) {
		f.slab = make([]block, 0, 4)
	}
	f.slab = append(f.slab, block{id: -1})
	return &f.slab[len(f.slab)-1]
}

// place appends b to the layout.
func (f *irFunc) place(b *block) *block {
	b.id = len(f.blocks)
	f.blocks = append(f.blocks, b)
	return b
}

// numInstrs counts straight-line instructions plus terminators — the
// IR-size metric the pass pipeline reports.
func (f *irFunc) numInstrs() int {
	n := 0
	for _, b := range f.blocks {
		n += len(b.ins)
		if b.term.Kind != termNone {
			n++
		}
	}
	return n
}

// String renders the IR in the textual form grailc -S dumps.
func (f *irFunc) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; ir %q: %d blocks, %d instrs, %d vregs\n", f.name, len(f.blocks), f.numInstrs(), f.nvregs)
	for _, b := range f.blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.id)
		for _, in := range b.ins {
			fmt.Fprintf(&sb, "  %s\n", in.String())
		}
		fmt.Fprintf(&sb, "  %s\n", b.term.String())
	}
	return sb.String()
}

func (in irInstr) String() string {
	switch in.Op {
	case irConst:
		return fmt.Sprintf("v%d = const %g", in.Dst, in.Imm)
	case irLoad:
		return fmt.Sprintf("v%d = load [%s]", in.Dst, in.Sym)
	case irStore:
		return fmt.Sprintf("store [%s], v%d", in.Sym, in.A)
	case irCopy:
		return fmt.Sprintf("v%d = copy v%d", in.Dst, in.A)
	case irNeg, irAbs, irNot, irBoo:
		return fmt.Sprintf("v%d = %s v%d", in.Dst, in.Op, in.A)
	case irAdd, irSub, irMul, irDiv, irMin, irMax:
		return fmt.Sprintf("v%d = %s v%d, v%d", in.Dst, in.Op, in.A, in.B)
	case irAddI, irSubI, irMulI, irDivI:
		return fmt.Sprintf("v%d = %s v%d, %g", in.Dst, in.Op, in.A, in.Imm)
	case irCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("v%d", a)
		}
		return fmt.Sprintf("v%d = call helper#%d(%s)", in.Dst, int(in.Helper), strings.Join(args, ", "))
	default:
		return fmt.Sprintf("?%s", in.Op)
	}
}

func (t terminator) String() string {
	switch t.Kind {
	case termJmp:
		return fmt.Sprintf("jmp b%d", t.Then.id)
	case termBr:
		if t.UseImm {
			return fmt.Sprintf("br%s v%d, %g -> b%d, b%d", t.Cmp, t.A, t.Imm, t.Then.id, t.Else.id)
		}
		return fmt.Sprintf("br%s v%d, v%d -> b%d, b%d", t.Cmp, t.A, t.B, t.Then.id, t.Else.id)
	case termRet:
		return fmt.Sprintf("ret v%d", t.Ret)
	default:
		return "<unterminated>"
	}
}
