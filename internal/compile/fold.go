package compile

import (
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Compile-time constant evaluation over the AST. The optimizer proper
// folds constants as an IR pass (passes.go); this evaluator exists for
// the places that need a constant *without* compiling — the monitor
// runtime's out-of-band SAVE dispatch, and tests. Every value comes
// from the interpreter itself (vm.Eval, vm.PureHelper), so VM semantics
// — x/0 = 0, clamped sqrt/log2, NaN compares, 0/1 booleans — are not
// restated here. now() never folds.

// ConstEval returns the value of e if it is a compile-time constant.
func ConstEval(e spec.Expr) (float64, bool) {
	if v, ok := spec.ConstValue(e); ok {
		return v, true
	}
	switch n := e.(type) {
	case *spec.UnaryExpr:
		if op, ok := constUnOps[n.Op]; ok {
			if x, ok := ConstEval(n.X); ok {
				return vm.Eval(op, x, 0), true
			}
		}
	case *spec.BinaryExpr:
		x, okX := ConstEval(n.X)
		y, okY := ConstEval(n.Y)
		if !okX || !okY {
			return 0, false
		}
		if op, ok := constBinOps[n.Op]; ok {
			return vm.Eval(op, x, y), true
		}
		// and/or are not opcodes (the lowerer branches on truthiness);
		// OpBoo is the VM's statement of truthiness.
		x, y = vm.Eval(vm.OpBoo, x, 0), vm.Eval(vm.OpBoo, y, 0)
		switch n.Op {
		case spec.TokAnd:
			return vm.Eval(vm.OpMin, x, y), true
		case spec.TokOr:
			return vm.Eval(vm.OpMax, x, y), true
		}
	case *spec.CallExpr:
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			v, ok := ConstEval(a)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		switch n.Fn {
		case "abs":
			return vm.Eval(vm.OpAbs, args[0], 0), true
		case "min":
			return vm.Eval(vm.OpMin, args[0], args[1]), true
		case "max":
			return vm.Eval(vm.OpMax, args[0], args[1]), true
		case "sqrt":
			return vm.PureHelper(vm.HelperSqrt, args[0])
		case "log2":
			return vm.PureHelper(vm.HelperLog2, args[0])
		}
	}
	return 0, false
}

// constUnOps and constBinOps name the VM instruction that computes each
// foldable spec operator; comparisons fold to whether their immediate
// compare-and-jump is taken (0/1).
var constUnOps = map[spec.TokenKind]vm.Op{spec.TokMinus: vm.OpNeg, spec.TokNot: vm.OpNot}

var constBinOps = map[spec.TokenKind]vm.Op{
	spec.TokPlus: vm.OpAdd, spec.TokMinus: vm.OpSub, spec.TokStar: vm.OpMul, spec.TokSlash: vm.OpDiv,
	spec.TokLt: vm.OpJLtI, spec.TokLe: vm.OpJLeI, spec.TokGt: vm.OpJGtI, spec.TokGe: vm.OpJGeI,
	spec.TokEq: vm.OpJEqI, spec.TokNe: vm.OpJNeI,
}
