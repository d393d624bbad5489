package vm

import (
	"fmt"
)

// Builder assembles a Program with symbolic labels and automatic symbol
// interning, so the package's tests can write programs by hand. Emit*
// methods append instructions; Label defines a forward jump target;
// Finish patches offsets and returns the program. The compiler emits
// without it (internal/compile's genProgram).
type Builder struct {
	name    string
	code    []Instr
	symbols []string
	symIdx  map[string]int32

	labels  map[string]int // label -> pc
	patches map[int]string // pc of jump -> label
	errs    []error
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		symIdx:  make(map[string]int32),
		labels:  make(map[string]int),
		patches: make(map[int]string),
	}
}

// Sym interns a feature-store key and returns its cell index.
func (b *Builder) Sym(key string) int32 {
	if i, ok := b.symIdx[key]; ok {
		return i
	}
	i := int32(len(b.symbols))
	b.symbols = append(b.symbols, key)
	b.symIdx[key] = i
	return i
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in Instr) { b.code = append(b.code, in) }

// MovI emits dst = imm.
func (b *Builder) MovI(dst uint8, imm float64) { b.Emit(Instr{Op: OpMovI, Dst: dst, Imm: imm}) }

// Mov emits dst = src.
func (b *Builder) Mov(dst, src uint8) { b.Emit(Instr{Op: OpMov, Dst: dst, Src: src}) }

// ALU emits a register-register arithmetic op: dst = lhs op src.
func (b *Builder) ALU(op Op, dst, lhs, src uint8) {
	b.Emit(Instr{Op: op, Dst: dst, Lhs: lhs, Src: src})
}

// ALUI emits a register-immediate arithmetic op: dst = lhs op imm.
func (b *Builder) ALUI(op Op, dst, lhs uint8, imm float64) {
	b.Emit(Instr{Op: op, Dst: dst, Lhs: lhs, Imm: imm})
}

// Un emits a unary op (neg/abs/not/bool): dst = op lhs.
func (b *Builder) Un(op Op, dst, lhs uint8) { b.Emit(Instr{Op: op, Dst: dst, Lhs: lhs}) }

// Load emits dst = LOAD(key).
func (b *Builder) Load(dst uint8, key string) {
	b.Emit(Instr{Op: OpLoad, Dst: dst, Cell: b.Sym(key)})
}

// Store emits SAVE(key, src).
func (b *Builder) Store(key string, src uint8) {
	b.Emit(Instr{Op: OpStore, Src: src, Cell: b.Sym(key)})
}

// Call emits r0 = helper(r1..r5).
func (b *Builder) Call(h HelperID) { b.Emit(Instr{Op: OpCall, Imm: float64(h)}) }

// Exit emits a return of r0.
func (b *Builder) Exit() { b.Emit(Instr{Op: OpExit}) }

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) {
	b.patches[len(b.code)] = label
	b.Emit(Instr{Op: OpJmp})
}

// JmpIf emits a conditional register-register jump to label.
func (b *Builder) JmpIf(op Op, dst, src uint8, label string) {
	b.patches[len(b.code)] = label
	b.Emit(Instr{Op: op, Dst: dst, Src: src})
}

// JmpIfI emits a conditional register-immediate jump to label.
func (b *Builder) JmpIfI(op Op, dst uint8, imm float64, label string) {
	b.patches[len(b.code)] = label
	b.Emit(Instr{Op: op, Dst: dst, Imm: imm})
}

// Label binds name to the next instruction's pc. Each label may be bound
// once; jumps to it must be emitted before (forward jumps only).
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("vm: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.code)
}

// Finish patches jump offsets and returns the assembled program. It does
// not run Verify; callers decide when to verify.
func (b *Builder) Finish() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for pc, label := range b.patches {
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("vm: undefined label %q", label)
		}
		off := target - pc - 1
		if off < 1 {
			return nil, fmt.Errorf("vm: label %q is not strictly forward of jump at pc=%d", label, pc)
		}
		b.code[pc].Off = int32(off)
	}
	return &Program{Name: b.name, Code: b.code, Symbols: b.symbols}, nil
}
