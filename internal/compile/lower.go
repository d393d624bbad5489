package compile

import (
	"fmt"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Lowering: checked AST → IR. Rules lower through condition position
// (lowerCond), which turns comparisons, &&/||, and ! directly into
// conditional-branch terminators — the generalization of the old
// backend's "branch fusion". Predicates in value position (a comparison
// stored by SAVE, say) materialize 0/1 through a diamond (lowerBool).
//
// The lowerer performs no optimization: -O0 is lowering plus codegen,
// and every cleanup (constant folding, CSE, immediate selection, dead
// code) is an explicit IR pass in passes.go.

type lowerer struct {
	f   *irFunc
	cur *block
}

// lowerGuardrail builds the IR for one checked guardrail:
//
//	entry ── rule 1 holds? ──...── rule N holds? ── hold: ret 1
//	   └────────── any rule fails ──────────▶ violated: actions; ret 0
func lowerGuardrail(g *spec.Guardrail) (*irFunc, error) {
	f := newIRFunc(g.Name)
	l := &lowerer{f: f}
	l.cur = f.place(f.newBlock())
	l.cur.ins = make([]irInstr, 0, 16)
	violated := f.newBlock()

	for i, r := range g.Rules {
		if !spec.IsPredicate(r) {
			// The checker guarantees this; fail loudly if bypassed.
			return nil, fmt.Errorf("rule %d is not a predicate", i)
		}
		cont := f.newBlock()
		if err := l.lowerCond(r, cont, violated); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		l.enter(cont)
	}
	one := l.emitConst(1)
	l.cur.term = terminator{Kind: termRet, Ret: one}

	l.enter(violated)
	for idx, a := range g.Actions {
		if err := l.lowerAction(a, idx); err != nil {
			return nil, fmt.Errorf("action %d: %w", idx, err)
		}
	}
	zero := l.emitConst(0)
	l.cur.term = terminator{Kind: termRet, Ret: zero}
	// A boolean literal in condition position lowers to a bare jmp, so
	// "x > 8 && false" leaves a jmp-only block under a branch.
	threadJumps(f)
	return f, nil
}

func (l *lowerer) emit(in irInstr) { l.cur.ins = append(l.cur.ins, in) }

// enter places b and makes it the current block. b appends into the
// spare capacity of the block before it, so a guardrail's instructions
// share a few backing arrays instead of growing one per block.
func (l *lowerer) enter(b *block) {
	prev := l.cur.ins
	l.cur.ins = prev[:len(prev):len(prev)]
	b.ins = prev[len(prev):]
	l.cur = l.f.place(b)
}

func (l *lowerer) emitConst(v float64) vreg {
	dst := l.f.newVReg()
	l.emit(irInstr{Op: irConst, Dst: dst, Imm: v})
	return dst
}

// cmpOf maps a comparison token to its IR comparison kind.
func cmpOf(op spec.TokenKind) (cmpKind, bool) {
	switch op {
	case spec.TokLt:
		return cmpLt, true
	case spec.TokLe:
		return cmpLe, true
	case spec.TokGt:
		return cmpGt, true
	case spec.TokGe:
		return cmpGe, true
	case spec.TokEq:
		return cmpEq, true
	case spec.TokNe:
		return cmpNe, true
	}
	return 0, false
}

// lowerCond terminates the current block with control flow that reaches
// t when e is true and f when e is false. Intermediate blocks are placed
// as they are created; t and f must be placed by the caller afterwards,
// keeping every edge forward in layout order.
func (l *lowerer) lowerCond(e spec.Expr, t, f *block) error {
	switch n := e.(type) {
	case *spec.BoolLit:
		dst := t
		if !n.Value {
			dst = f
		}
		l.cur.term = terminator{Kind: termJmp, Then: dst}
		return nil
	case *spec.UnaryExpr:
		if n.Op == spec.TokNot {
			return l.lowerCond(n.X, f, t)
		}
	case *spec.BinaryExpr:
		if cmp, ok := cmpOf(n.Op); ok {
			a, err := l.lowerValue(n.X)
			if err != nil {
				return err
			}
			b, err := l.lowerValue(n.Y)
			if err != nil {
				return err
			}
			l.cur.term = terminator{Kind: termBr, Cmp: cmp, A: a, B: b, Then: t, Else: f}
			return nil
		}
		switch n.Op {
		case spec.TokAnd: // X && Y: X false short-circuits to f
			mid := l.f.newBlock()
			if err := l.lowerCond(n.X, mid, f); err != nil {
				return err
			}
			l.enter(mid)
			return l.lowerCond(n.Y, t, f)
		case spec.TokOr: // X || Y: X true short-circuits to t
			mid := l.f.newBlock()
			if err := l.lowerCond(n.X, t, mid); err != nil {
				return err
			}
			l.enter(mid)
			return l.lowerCond(n.Y, t, f)
		}
	}
	// Anything else: evaluate and test truthiness.
	v, err := l.lowerValue(e)
	if err != nil {
		return err
	}
	zero := l.emitConst(0)
	l.cur.term = terminator{Kind: termBr, Cmp: cmpNe, A: v, B: zero, Then: t, Else: f}
	return nil
}

// lowerBool materializes a predicate's 0/1 value through a diamond. The
// result vreg is assigned in both arms and therefore marked multi-def.
func (l *lowerer) lowerBool(e spec.Expr) (vreg, error) {
	dst := l.f.newVReg()
	if l.f.multiDef == nil {
		l.f.multiDef = make(map[vreg]bool)
	}
	l.f.multiDef[dst] = true
	tB, fB, join := l.f.newBlock(), l.f.newBlock(), l.f.newBlock()
	if err := l.lowerCond(e, tB, fB); err != nil {
		return 0, err
	}
	l.enter(tB)
	l.emit(irInstr{Op: irConst, Dst: dst, Imm: 1})
	l.cur.term = terminator{Kind: termJmp, Then: join}
	l.enter(fB)
	l.emit(irInstr{Op: irConst, Dst: dst, Imm: 0})
	l.cur.term = terminator{Kind: termJmp, Then: join}
	l.enter(join)
	return dst, nil
}

// lowerValue emits code leaving e's value in a fresh vreg.
func (l *lowerer) lowerValue(e spec.Expr) (vreg, error) {
	if v, ok := spec.ConstValue(e); ok {
		return l.emitConst(v), nil
	}
	switch n := e.(type) {
	case *spec.LoadExpr:
		return l.emitLoad(n.Key), nil
	case *spec.IdentExpr:
		return l.emitLoad(n.Name), nil // bare identifier = implicit LOAD
	case *spec.UnaryExpr:
		a, err := l.lowerValue(n.X)
		if err != nil {
			return 0, err
		}
		dst := l.f.newVReg()
		switch n.Op {
		case spec.TokMinus:
			l.emit(irInstr{Op: irNeg, Dst: dst, A: a})
		case spec.TokNot:
			l.emit(irInstr{Op: irNot, Dst: dst, A: a})
		default:
			return 0, fmt.Errorf("unsupported unary operator %v", n.Op)
		}
		return dst, nil
	case *spec.BinaryExpr:
		var op irOp
		switch n.Op {
		case spec.TokPlus:
			op = irAdd
		case spec.TokMinus:
			op = irSub
		case spec.TokStar:
			op = irMul
		case spec.TokSlash:
			op = irDiv
		case spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe,
			spec.TokEq, spec.TokNe, spec.TokAnd, spec.TokOr:
			return l.lowerBool(n)
		default:
			return 0, fmt.Errorf("unsupported binary operator %v", n.Op)
		}
		a, err := l.lowerValue(n.X)
		if err != nil {
			return 0, err
		}
		b, err := l.lowerValue(n.Y)
		if err != nil {
			return 0, err
		}
		dst := l.f.newVReg()
		l.emit(irInstr{Op: op, Dst: dst, A: a, B: b})
		return dst, nil
	case *spec.CallExpr:
		return l.lowerCall(n)
	default:
		return 0, fmt.Errorf("unsupported expression node %T", e)
	}
}

func (l *lowerer) emitLoad(key string) vreg {
	dst := l.f.newVReg()
	l.emit(irInstr{Op: irLoad, Dst: dst, Sym: key})
	return dst
}

func (l *lowerer) lowerCall(n *spec.CallExpr) (vreg, error) {
	lowerArgs := func() ([]vreg, error) {
		out := make([]vreg, len(n.Args))
		for i, a := range n.Args {
			v, err := l.lowerValue(a)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	switch n.Fn {
	case "abs", "min", "max":
		args, err := lowerArgs()
		if err != nil {
			return 0, err
		}
		dst := l.f.newVReg()
		switch n.Fn {
		case "abs":
			l.emit(irInstr{Op: irAbs, Dst: dst, A: args[0]})
		case "min":
			l.emit(irInstr{Op: irMin, Dst: dst, A: args[0], B: args[1]})
		default:
			l.emit(irInstr{Op: irMax, Dst: dst, A: args[0], B: args[1]})
		}
		return dst, nil
	case "sqrt", "log2", "now":
		args, err := lowerArgs()
		if err != nil {
			return 0, err
		}
		h := vm.HelperSqrt
		switch n.Fn {
		case "log2":
			h = vm.HelperLog2
		case "now":
			h = vm.HelperNow
		}
		dst := l.f.newVReg()
		l.emit(irInstr{Op: irCall, Dst: dst, Helper: h, Args: args})
		return dst, nil
	default:
		return 0, fmt.Errorf("unknown function %q", n.Fn)
	}
}

// lowerAction emits the violation-path IR for one action. SAVE inlines
// as a feature-store write; everything else marshals the action index
// plus up to MaxReportArgs values into a HelperAction call.
func (l *lowerer) lowerAction(a spec.Action, idx int) error {
	dispatch := func(vals []spec.Expr) error {
		if len(vals) > MaxReportArgs {
			return fmt.Errorf("at most %d action values supported, got %d", MaxReportArgs, len(vals))
		}
		args := make([]vreg, 0, len(vals)+1)
		args = append(args, l.emitConst(float64(idx)))
		for _, e := range vals {
			v, err := l.lowerValue(e)
			if err != nil {
				return err
			}
			args = append(args, v)
		}
		l.emit(irInstr{Op: irCall, Dst: l.f.newVReg(), Helper: vm.HelperAction, Args: args})
		return nil
	}
	switch n := a.(type) {
	case *spec.SaveAction:
		v, err := l.lowerValue(n.Value)
		if err != nil {
			return err
		}
		l.emit(irInstr{Op: irStore, Sym: n.Key, A: v})
		return nil
	case *spec.ReportAction:
		return dispatch(n.Args)
	case *spec.ReplaceAction, *spec.RetrainAction:
		return dispatch(nil)
	case *spec.DeprioritizeAction:
		if n.Priority != nil {
			return dispatch([]spec.Expr{n.Priority})
		}
		return dispatch(nil)
	default:
		return fmt.Errorf("unsupported action %T", a)
	}
}
