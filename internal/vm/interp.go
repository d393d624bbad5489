package vm

import (
	"errors"
	"fmt"
	"math"
)

// Env is the runtime environment a loaded program executes against: the
// feature-store cells it was linked to and the helper table.
type Env interface {
	// LoadCell reads linked cell i (index into the program's symbol
	// table after resolution).
	LoadCell(i int32) float64
	// StoreCell writes linked cell i.
	StoreCell(i int32, v float64)
	// Helper invokes helper h with up to five arguments and returns r0.
	// args aliases the machine's registers r1–r5: it is valid only
	// during the call, and a helper must neither retain nor write it
	// (the machine zeroes r1–r5 after the call returns).
	// A non-nil error aborts the program with a TrapHelper trap — the
	// seam through which failing action backends and injected
	// helper-call faults surface to the runtime.
	Helper(h HelperID, args *[5]float64) (float64, error)
}

// ErrBudget is returned when execution exceeds the instruction budget.
// A verified program can never hit it (verified programs are loop-free
// and bounded by their length), so seeing ErrBudget implies the program
// bypassed verification.
var ErrBudget = errors.New("vm: instruction budget exceeded")

// TraceCap bounds the branch decisions a BranchTrace retains; further
// decisions set Truncated instead of growing.
const TraceCap = 32

// BranchTrace records the conditional-branch path one Run took:
// every conditional jump's pc and whether it was taken, in execution
// order. It is fixed-size and reusable — installing one on a Machine
// and resetting it between runs allocates nothing.
type BranchTrace struct {
	PC        [TraceCap]int32
	Taken     [TraceCap]bool
	N         int
	Truncated bool
}

func (t *BranchTrace) add(pc int, taken bool) {
	if t.N >= TraceCap {
		t.Truncated = true
		return
	}
	t.PC[t.N] = int32(pc)
	t.Taken[t.N] = taken
	t.N++
}

// regMask reduces a register field into the register file (NumRegs is a
// power of two).
const regMask = NumRegs - 1

// Machine executes programs on the one interpreter loop. A Machine is
// cheap; the zero value is ready to use and may be reused across runs.
// Not safe for concurrent use.
type Machine struct {
	regs [NumRegs]float64
	// Steps accumulates executed instruction counts across Run calls,
	// feeding monitor-overhead accounting (property P5).
	Steps uint64
	// Trace, when non-nil, receives the conditional-branch path of
	// each Run — the provenance plane's branch capture. Untraced runs
	// pay one predictable nil test per conditional jump.
	Trace *BranchTrace
}

// Run executes p against env with r0 preset to arg (the trigger
// argument: e.g. the instrumented function's observed value). It returns
// the value of r0 at OpExit. Failures are returned as classified *Trap
// errors.
//
// Every program runs with every guard: a per-step instruction budget
// bounds runaway code, every pc is bounds-tested before the fetch,
// register fields are read modulo NumRegs (r16 is r0: the verifier
// rejects any register past r15, so only an unverified program can name
// one), and division is always the x/0 = 0 form. The loop reads none of p.Meta —
// the verifier's proof is what admission, budgets and provenance
// consume, never a licence to drop a guard — so a wrong verifier or
// certificate-checker verdict cannot make execution unsafe. This loop
// is also the only statement of what each opcode computes (see Eval).
// The step count is kept in a local and folded into m.Steps on every
// exit so the loop touches no memory beyond the register file.
//
//guardrails:hotpath
func (m *Machine) Run(p *Program, env Env, arg float64) (float64, error) {
	m.regs = [NumRegs]float64{}
	m.regs[0] = arg
	r := &m.regs
	code := p.Code
	budget := len(code) + 1
	tr := m.Trace
	var steps uint64
	pc := 0
	for {
		if budget <= 0 {
			m.Steps += steps
			return 0, &Trap{Code: TrapBudget, PC: pc, Program: p.Name, //guardrails:coldpath trap construction
				Instr: p.InstrString(pc), Cause: ErrBudget}
		}
		budget--
		steps++
		if pc < 0 || pc >= len(code) {
			m.Steps += steps
			return 0, &Trap{Code: TrapBadPC, PC: pc, Program: p.Name, //guardrails:coldpath trap construction
				Cause: fmt.Errorf("pc %d outside [0,%d)", pc, len(code))} //guardrails:coldpath trap construction
		}
		in := code[pc]
		switch in.Op {
		case OpMov:
			r[in.Dst&regMask] = r[in.Src&regMask]
		case OpMovI:
			r[in.Dst&regMask] = in.Imm
		case OpAdd:
			r[in.Dst&regMask] = r[in.Lhs&regMask] + r[in.Src&regMask]
		case OpAddI:
			r[in.Dst&regMask] = r[in.Lhs&regMask] + in.Imm
		case OpSub:
			r[in.Dst&regMask] = r[in.Lhs&regMask] - r[in.Src&regMask]
		case OpSubI:
			r[in.Dst&regMask] = r[in.Lhs&regMask] - in.Imm
		case OpMul:
			r[in.Dst&regMask] = r[in.Lhs&regMask] * r[in.Src&regMask]
		case OpMulI:
			r[in.Dst&regMask] = r[in.Lhs&regMask] * in.Imm
		case OpDiv:
			r[in.Dst&regMask] = safeDiv(r[in.Lhs&regMask], r[in.Src&regMask])
		case OpDivI:
			r[in.Dst&regMask] = safeDiv(r[in.Lhs&regMask], in.Imm)
		case OpNeg:
			r[in.Dst&regMask] = -r[in.Lhs&regMask]
		case OpAbs:
			r[in.Dst&regMask] = math.Abs(r[in.Lhs&regMask])
		case OpMin:
			r[in.Dst&regMask] = math.Min(r[in.Lhs&regMask], r[in.Src&regMask])
		case OpMax:
			r[in.Dst&regMask] = math.Max(r[in.Lhs&regMask], r[in.Src&regMask])
		case OpNot:
			if r[in.Lhs&regMask] == 0 {
				r[in.Dst&regMask] = 1
			} else {
				r[in.Dst&regMask] = 0
			}
		case OpBoo:
			v := r[in.Lhs&regMask]
			if v != 0 {
				v = 1
			}
			r[in.Dst&regMask] = v
		case OpJmp:
			pc += int(in.Off)
		case OpJEq:
			if taken := r[in.Dst&regMask] == r[in.Src&regMask]; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJNe:
			if taken := r[in.Dst&regMask] != r[in.Src&regMask]; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJLt:
			if taken := r[in.Dst&regMask] < r[in.Src&regMask]; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJLe:
			if taken := r[in.Dst&regMask] <= r[in.Src&regMask]; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJGt:
			if taken := r[in.Dst&regMask] > r[in.Src&regMask]; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJGe:
			if taken := r[in.Dst&regMask] >= r[in.Src&regMask]; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJEqI:
			if taken := r[in.Dst&regMask] == in.Imm; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJNeI:
			if taken := r[in.Dst&regMask] != in.Imm; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJLtI:
			if taken := r[in.Dst&regMask] < in.Imm; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJLeI:
			if taken := r[in.Dst&regMask] <= in.Imm; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJGtI:
			if taken := r[in.Dst&regMask] > in.Imm; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpJGeI:
			if taken := r[in.Dst&regMask] >= in.Imm; branch(tr, pc, taken) {
				pc += int(in.Off)
			}
		case OpLoad:
			r[in.Dst&regMask] = env.LoadCell(in.Cell)
		case OpStore:
			env.StoreCell(in.Cell, r[in.Src&regMask])
		case OpCall:
			// The helper reads its arguments where the program left
			// them: r1–r5, not a copy that escapes through env.
			out, err := env.Helper(HelperID(in.Imm), (*[5]float64)(r[1:6]))
			if err != nil {
				m.Steps += steps
				return 0, &Trap{Code: TrapHelper, PC: pc, Program: p.Name, //guardrails:coldpath trap construction
					Instr: p.fmtInstr(in), Cause: err}
			}
			r[0] = out
			r[1], r[2], r[3], r[4], r[5] = 0, 0, 0, 0, 0
		case OpExit:
			m.Steps += steps
			return r[0], nil
		default:
			m.Steps += steps
			return 0, &Trap{Code: TrapBadOpcode, PC: pc, Program: p.Name, //guardrails:coldpath trap construction
				Instr: p.fmtInstr(in), Cause: fmt.Errorf("invalid opcode %v", in.Op)} //guardrails:coldpath trap construction
		}
		pc++
	}
}

// branch records one conditional-jump decision into tr (if installed)
// and passes the verdict through, keeping the loop's jump cases
// single-expression.
func branch(tr *BranchTrace, pc int, taken bool) bool {
	if tr != nil {
		tr.add(pc, taken)
	}
	return taken
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Eval returns what a single ALU or conditional-jump instruction
// computes on concrete operands, by running it on the interpreter: a is
// the left operand (an ALU op's lhs register, a jump's dst register)
// and b both the src register's value and the immediate (so register
// and immediate forms are both covered; unary ops ignore b). ALU
// opcodes yield the new dst; conditional jumps yield 1 if taken, else
// 0. It is how the compiler's constant folders learn VM semantics
// without restating them. Passing an opcode that touches the
// environment (load, store, call) or an invalid one is a caller bug and
// panics.
func Eval(op Op, a, b float64) float64 {
	var tr BranchTrace
	m := Machine{Trace: &tr}
	p := Program{Name: "eval", Code: []Instr{
		{Op: OpMovI, Dst: 1, Imm: b},
		{Op: op, Dst: 0, Lhs: 0, Src: 1, Imm: b, Off: 1},
		{Op: OpExit}, // fallthrough
		{Op: OpExit}, // jump target
	}}
	out, err := m.Run(&p, nil, a)
	if err != nil {
		panic(err)
	}
	switch {
	case tr.N == 0:
		return out
	case tr.Taken[0]:
		return 1
	}
	return 0
}

// PureHelper computes the side-effect-free math helpers under their
// clamping contract — sqrt of a negative and log2 of a non-positive are
// 0, NaN propagates — and reports whether h is one of them. Every Env
// and the constant folder call it, so the contract is stated once.
func PureHelper(h HelperID, x float64) (float64, bool) {
	switch h {
	case HelperSqrt:
		if x < 0 {
			return 0, true
		}
		return math.Sqrt(x), true
	case HelperLog2:
		if x <= 0 {
			return 0, true
		}
		return math.Log2(x), true
	}
	return 0, false
}
