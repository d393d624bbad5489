package compile

import (
	"math"

	"guardrails/internal/vm"
)

// The optimization pipeline. Each pass rewrites the IR in place; the
// pass manager in compile.go runs them in order and dumps the IR after
// each when tracing (-S). All passes rely on two invariants the lowerer
// establishes and every pass preserves: block edges only point forward
// in layout order, and every vreg outside irFunc.multiDef has exactly
// one defining instruction which precedes all of its uses.

// irPass is one named rewrite over the IR.
type irPass struct {
	name string
	run  func(*irFunc)
}

// passesForLevel returns the pipeline for an optimization level. -O0 is
// lowering plus codegen only; -O1 runs the full pipeline.
func passesForLevel(level int) []irPass {
	if level <= 0 {
		return nil
	}
	return []irPass{
		{"constfold", passConstFold},
		{"cse", passCSE},
		{"copyprop", passCopyProp},
		{"immsel", passImmSel},
		{"dce", passDCE},
	}
}

// ssaConsts maps every single-def vreg defined by irConst to its value.
func ssaConsts(f *irFunc) map[vreg]float64 {
	consts := make(map[vreg]float64)
	for _, b := range f.blocks {
		for _, in := range b.ins {
			if in.Op == irConst && !f.multiDef[in.Dst] {
				consts[in.Dst] = in.Imm
			}
		}
	}
	return consts
}

// passConstFold propagates constants forward and folds every pure
// operation whose operands are known, including the clamped sqrt/log2
// helpers. Conditional branches over constants become unconditional
// jumps, which passDCE then exploits to drop the untaken side. Values
// come from the interpreter itself (vm.Eval, vm.PureHelper), so a fold
// cannot disagree with the unfolded instruction.
func passConstFold(f *irFunc) {
	consts := make(map[vreg]float64)
	for _, b := range f.blocks {
		for i := range b.ins {
			in := &b.ins[i]
			if in.Op != irStore && f.multiDef[in.Dst] {
				continue
			}
			switch in.Op {
			case irConst:
				consts[in.Dst] = in.Imm
			case irCopy:
				if v, ok := consts[in.A]; ok {
					*in = irInstr{Op: irConst, Dst: in.Dst, Imm: v}
					consts[in.Dst] = v
				}
			case irNeg, irAbs, irNot, irBoo, irAddI, irSubI, irMulI, irDivI:
				if a, ok := consts[in.A]; ok {
					r := vm.Eval(aluOps[in.Op], a, in.Imm)
					*in = irInstr{Op: irConst, Dst: in.Dst, Imm: r}
					consts[in.Dst] = r
				}
			case irAdd, irSub, irMul, irDiv, irMin, irMax:
				a, okA := consts[in.A]
				bv, okB := consts[in.B]
				if okA && okB {
					r := vm.Eval(aluOps[in.Op], a, bv)
					*in = irInstr{Op: irConst, Dst: in.Dst, Imm: r}
					consts[in.Dst] = r
				}
			case irCall:
				if len(in.Args) != 1 {
					continue
				}
				a, ok := consts[in.Args[0]]
				if !ok {
					continue
				}
				if r, folded := vm.PureHelper(in.Helper, a); folded {
					*in = irInstr{Op: irConst, Dst: in.Dst, Imm: r}
					consts[in.Dst] = r
				}
			}
		}
		t := &b.term
		if t.Kind != termBr {
			continue
		}
		a, okA := consts[t.A]
		if !okA {
			continue
		}
		bv, okB := t.Imm, t.UseImm
		if !t.UseImm {
			bv, okB = consts[t.B]
		}
		if okB {
			dst := t.Else
			if vm.Eval(t.Cmp.jumpOp(true), a, bv) != 0 {
				dst = t.Then
			}
			*t = terminator{Kind: termJmp, Then: dst}
		}
	}
}

// cseKey is the value-numbering key of an instruction. The opcode
// says which of the other fields take part: a constant its bits, a
// load its key, an ALU op its operands (commutative ones in ascending
// order) and an immediate form its operand and immediate's bits.
type cseKey struct {
	op   irOp
	a, b vreg
	bits uint64
	sym  string
}

// cseKeyOf returns the key of an instruction and whether it is a
// candidate at all (stores, calls and copies are not).
func cseKeyOf(in *irInstr) (cseKey, bool) {
	switch in.Op {
	case irConst:
		return cseKey{op: irConst, bits: math.Float64bits(in.Imm)}, true
	case irLoad:
		return cseKey{op: irLoad, sym: in.Sym}, true
	case irNeg, irAbs, irNot, irBoo:
		return cseKey{op: in.Op, a: in.A}, true
	case irAdd, irMul, irMin, irMax: // commutative: canonicalize operand order
		a, b := in.A, in.B
		if b < a {
			a, b = b, a
		}
		return cseKey{op: in.Op, a: a, b: b}, true
	case irSub, irDiv:
		return cseKey{op: in.Op, a: in.A, b: in.B}, true
	case irAddI, irSubI, irMulI, irDivI:
		return cseKey{op: in.Op, a: in.A, bits: math.Float64bits(in.Imm)}, true
	}
	return cseKey{}, false
}

// passCSE eliminates common subexpressions with local value numbering
// extended across single-predecessor chains: a block with exactly one
// predecessor inherits its predecessor's available-expression table.
// In particular, repeated LOADs of one key within a rule collapse to a
// single feature-store read. A store kills the loaded value of its key;
// a helper call conservatively kills all loads (the action helper can
// write the feature store through the runtime).
//
// Every table is a range of one arena, searched linearly: blocks hold a
// handful of values, fewer than a map pays for itself on. A block's
// last heir takes its table over in place when nothing was appended
// after it, so a chain of rules extends one range instead of copying.
func passCSE(f *irFunc) {
	// Per block: its predecessor count and last predecessor, how many
	// single-predecessor successors have yet to inherit its table, and
	// the arena range that table occupies.
	type cseBlock struct{ npred, pred, heirs, lo, hi int }
	bs := make([]cseBlock, len(f.blocks))
	edge := func(from, to *block) {
		bs[to.id].npred++
		bs[to.id].pred = from.id
	}
	for _, b := range f.blocks {
		switch b.term.Kind {
		case termBr:
			edge(b, b.term.Then)
			edge(b, b.term.Else)
		case termJmp:
			edge(b, b.term.Then)
		}
	}
	for i := range bs {
		if bs[i].npred == 1 {
			bs[bs[i].pred].heirs++
		}
	}
	type entry struct {
		key cseKey
		v   vreg
	}
	arena := make([]entry, 0, f.numInstrs())
	kill := func(lo int, dead func(cseKey) bool) {
		kept := arena[lo:lo]
		for _, e := range arena[lo:] {
			if !dead(e.key) {
				kept = append(kept, e)
			}
		}
		arena = arena[:lo+len(kept)]
	}
	for _, b := range f.blocks {
		lo := len(arena)
		if c := &bs[b.id]; c.npred == 1 {
			p := &bs[c.pred]
			if p.heirs--; p.heirs == 0 && p.hi == len(arena) {
				lo = p.lo
			} else {
				arena = append(arena, arena[p.lo:p.hi]...)
			}
		}
	ins:
		for i := range b.ins {
			in := &b.ins[i]
			switch in.Op {
			case irStore:
				kill(lo, func(k cseKey) bool { return k.op == irLoad && k.sym == in.Sym })
				continue
			case irCall:
				kill(lo, func(k cseKey) bool { return k.op == irLoad })
				continue
			}
			if f.multiDef[in.Dst] || f.multiDef[in.A] || f.multiDef[in.B] {
				continue
			}
			key, ok := cseKeyOf(in)
			if !ok {
				continue
			}
			for _, e := range arena[lo:] {
				if e.key == key {
					*in = irInstr{Op: irCopy, Dst: in.Dst, A: e.v}
					continue ins
				}
			}
			arena = append(arena, entry{key, in.Dst})
		}
		bs[b.id].lo, bs[b.id].hi = lo, len(arena)
	}
}

// passCopyProp rewrites uses of copy destinations to the copy source,
// leaving the (now dead) copies for passDCE. Only single-def vregs on
// both sides participate: a multi-def source could in principle be
// redefined between the copy and a use, so it is left alone.
func passCopyProp(f *irFunc) {
	repl := make(map[vreg]vreg)
	for _, b := range f.blocks {
		for _, in := range b.ins {
			if in.Op == irCopy && !f.multiDef[in.Dst] && !f.multiDef[in.A] {
				src := in.A
				if r, ok := repl[src]; ok {
					src = r
				}
				repl[in.Dst] = src
			}
		}
	}
	if len(repl) == 0 {
		return
	}
	sub := func(v vreg) vreg {
		if r, ok := repl[v]; ok {
			return r
		}
		return v
	}
	for _, b := range f.blocks {
		for i := range b.ins {
			in := &b.ins[i]
			switch in.Op {
			case irConst, irLoad:
				// no vreg operands
			case irCall:
				for j := range in.Args {
					in.Args[j] = sub(in.Args[j])
				}
			default:
				in.A = sub(in.A)
				in.B = sub(in.B)
			}
		}
		switch b.term.Kind {
		case termBr:
			b.term.A = sub(b.term.A)
			if !b.term.UseImm {
				b.term.B = sub(b.term.B)
			}
		case termRet:
			b.term.Ret = sub(b.term.Ret)
		}
	}
}

// passImmSel selects register-immediate forms: a binary op with one
// constant operand becomes addi/subi/muli/divi (using commutativity
// where the ISA lacks a reversed form), and a conditional branch
// against a constant becomes the immediate comparison the VM's fused
// compare-and-jump opcodes support, swapping the comparison when the
// constant is on the left.
func passImmSel(f *irFunc) {
	consts := ssaConsts(f)
	for _, b := range f.blocks {
		for i := range b.ins {
			in := &b.ins[i]
			if in.Op != irStore && f.multiDef[in.Dst] {
				continue
			}
			switch in.Op {
			case irAdd, irMul:
				immOp := irAddI
				if in.Op == irMul {
					immOp = irMulI
				}
				if v, ok := consts[in.B]; ok {
					*in = irInstr{Op: immOp, Dst: in.Dst, A: in.A, Imm: v}
				} else if v, ok := consts[in.A]; ok {
					*in = irInstr{Op: immOp, Dst: in.Dst, A: in.B, Imm: v}
				}
			case irSub, irDiv:
				immOp := irSubI
				if in.Op == irDiv {
					immOp = irDivI
				}
				if v, ok := consts[in.B]; ok {
					*in = irInstr{Op: immOp, Dst: in.Dst, A: in.A, Imm: v}
				}
			}
		}
		t := &b.term
		if t.Kind != termBr || t.UseImm {
			continue
		}
		if v, ok := consts[t.B]; ok {
			t.UseImm, t.Imm, t.B = true, v, 0
		} else if v, ok := consts[t.A]; ok {
			t.Cmp, t.A, t.B = t.Cmp.swap(), t.B, 0
			t.UseImm, t.Imm = true, v
		}
	}
}

// instrUses appends the vregs an instruction reads to buf.
func instrUses(in *irInstr, buf []vreg) []vreg {
	switch in.Op {
	case irConst, irLoad:
		return buf
	case irCall:
		return append(buf, in.Args...)
	case irStore, irCopy, irNeg, irAbs, irNot, irBoo, irAddI, irSubI, irMulI, irDivI:
		return append(buf, in.A)
	default: // binary register forms
		return append(buf, in.A, in.B)
	}
}

// termUses appends the vregs a terminator reads to buf.
func termUses(t *terminator, buf []vreg) []vreg {
	switch t.Kind {
	case termBr:
		buf = append(buf, t.A)
		if !t.UseImm {
			buf = append(buf, t.B)
		}
	case termRet:
		buf = append(buf, t.Ret)
	}
	return buf
}

// sideEffecting reports whether an instruction must be kept even when
// its result is unused. Feature-store writes and the report/action
// helpers are effects; the pure math helpers and now() are not.
func sideEffecting(in *irInstr) bool {
	switch in.Op {
	case irStore:
		return true
	case irCall:
		switch in.Helper {
		case vm.HelperSqrt, vm.HelperLog2, vm.HelperNow:
			return false
		}
		return true
	}
	return false
}

// threadJumps retargets every edge that lands on a jmp-only block to
// that block's destination and turns a branch whose arms then coincide
// into a jmp. Codegen elides a jmp to the next block in layout, so a
// jmp-only block can assemble to nothing, and a branch over it to the
// zero-offset jump the VM forbids. Edges point forward, so walking the
// layout backwards settles every successor before its predecessors
// look at it: a branch collapsed into a jmp is threaded past too. The
// bypassed blocks have lost every predecessor and leave the layout.
func threadJumps(f *irFunc) {
	jmpOnly := func(b *block) bool { return len(b.ins) == 0 && b.term.Kind == termJmp }
	final := func(b *block) *block {
		for jmpOnly(b) {
			b = b.term.Then
		}
		return b
	}
	for i := len(f.blocks) - 1; i >= 0; i-- {
		t := &f.blocks[i].term
		switch t.Kind {
		case termJmp:
			t.Then = final(t.Then)
		case termBr:
			t.Then, t.Else = final(t.Then), final(t.Else)
			if t.Then == t.Else {
				*t = terminator{Kind: termJmp, Then: t.Then}
			}
		}
	}
	kept := f.blocks[:1]
	for _, b := range f.blocks[1:] {
		if !jmpOnly(b) {
			b.id = len(kept)
			kept = append(kept, b)
		}
	}
	f.blocks = kept
}

// passDCE removes blocks unreachable from the entry (e.g. the untaken
// side of a branch passConstFold decided) and strips pure instructions
// whose results are never read, iterating to a fixpoint so whole dead
// expression trees disappear. Stripping can leave a block jmp-only and
// threading past it can free a branch's operands, so the two repeat
// until the IR stops shrinking.
func passDCE(f *irFunc) {
	if len(f.blocks) == 0 {
		return
	}
	for n := -1; n != f.numInstrs(); {
		n = f.numInstrs()
		threadJumps(f)
		dropUnreachable(f)
		stripDead(f)
	}
}

// dropUnreachable keeps the blocks an edge from a kept block reaches.
// Edges point forward, so a block's successors still carry the layout
// position reach is indexed by when it marks them.
func dropUnreachable(f *irFunc) {
	reach := make([]bool, len(f.blocks))
	reach[0] = true
	kept := f.blocks[:0]
	for _, b := range f.blocks {
		if !reach[b.id] {
			continue
		}
		switch b.term.Kind {
		case termBr:
			reach[b.term.Else.id] = true
			reach[b.term.Then.id] = true
		case termJmp:
			reach[b.term.Then.id] = true
		}
		b.id = len(kept)
		kept = append(kept, b)
	}
	f.blocks = kept
}

func stripDead(f *irFunc) {
	uses := make([]int32, f.nvregs)
	buf := make([]vreg, 0, 8)
	for _, b := range f.blocks {
		for i := range b.ins {
			buf = instrUses(&b.ins[i], buf[:0])
			for _, v := range buf {
				uses[v]++
			}
		}
		buf = termUses(&b.term, buf[:0])
		for _, v := range buf {
			uses[v]++
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.blocks {
			live := b.ins[:0]
			for i := range b.ins {
				in := &b.ins[i]
				if !sideEffecting(in) && uses[in.Dst] == 0 {
					buf = instrUses(in, buf[:0])
					for _, v := range buf {
						uses[v]--
					}
					changed = true
					continue
				}
				live = append(live, *in)
			}
			b.ins = live
		}
	}
}
