package vm

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// testEnv is a trivial Env backed by a slice and a helper log.
type testEnv struct {
	cells     []float64
	helpers   []HelperID
	now       float64
	helperErr error
}

func (e *testEnv) LoadCell(i int32) float64 { return e.cells[i] }
func (e *testEnv) StoreCell(i int32, v float64) {
	e.cells[i] = v
}
func (e *testEnv) Helper(h HelperID, args *[5]float64) (float64, error) {
	if e.helperErr != nil {
		return 0, e.helperErr
	}
	e.helpers = append(e.helpers, h)
	switch h {
	case HelperNow:
		return e.now, nil
	case HelperSqrt:
		if args[0] < 0 {
			return 0, nil
		}
		return math.Sqrt(args[0]), nil
	case HelperLog2:
		if args[0] <= 0 {
			return 0, nil
		}
		return math.Log2(args[0]), nil
	default:
		return 0, nil
	}
}

func mustVerify(t *testing.T, p *Program) {
	t.Helper()
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatalf("verify %q: %v\n%s", p.Name, err, p)
	}
}

func run(t *testing.T, p *Program, env Env, arg float64) float64 {
	t.Helper()
	var m Machine
	out, err := m.Run(p, env, arg)
	if err != nil {
		t.Fatalf("run %q: %v", p.Name, err)
	}
	return out
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		a, b float64
		want float64
		// skipVerify runs the program unverified: the verifier rejects a provably-constant-zero divisor,
		// but the runtime x/0 = 0 semantics must still hold for programs
		// that bypass it.
		skipVerify bool
	}{
		{"add", OpAdd, 2, 3, 5, false},
		{"sub", OpSub, 2, 3, -1, false},
		{"mul", OpMul, 2, 3, 6, false},
		{"div", OpDiv, 6, 3, 2, false},
		{"div0", OpDiv, 6, 0, 0, true},
		{"min", OpMin, 2, 3, 2, false},
		{"max", OpMax, 2, 3, 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.name)
			b.MovI(1, c.a)
			b.MovI(2, c.b)
			b.ALU(c.op, 1, 1, 2)
			b.Mov(0, 1)
			b.Exit()
			p, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !c.skipVerify {
				mustVerify(t, p)
			}
			if got := run(t, p, &testEnv{}, 0); got != c.want {
				t.Errorf("%s(%v,%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
			}
		})
	}
}

func TestImmediateOps(t *testing.T) {
	b := NewBuilder("imm")
	b.MovI(1, 10)
	b.ALUI(OpAddI, 1, 1, 5)  // 15
	b.ALUI(OpSubI, 1, 1, 3)  // 12
	b.ALUI(OpMulI, 1, 1, 2)  // 24
	b.ALUI(OpDivI, 1, 1, 4)  // 6
	b.ALUI(OpMulI, 1, 1, 0)  // 0
	b.ALUI(OpAddI, 1, 1, -7) // -7
	b.Un(OpAbs, 1, 1)        // 7
	b.Un(OpNeg, 1, 1)        // -7
	b.Mov(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	if got := run(t, p, &testEnv{}, 0); got != -7 {
		t.Errorf("got %v, want -7", got)
	}
}

// TestDivIByZeroUnverified pins the interpreter's x/0 = 0
// semantics for the immediate form; the verifier rejects such programs,
// so this runs unverified.
func TestDivIByZeroUnverified(t *testing.T) {
	b := NewBuilder("divi0")
	b.MovI(0, 42)
	b.ALUI(OpDivI, 0, 0, 0)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, p, &testEnv{}, 0); got != 0 {
		t.Errorf("42 divi 0 = %v, want 0", got)
	}
}

func TestLogicalOps(t *testing.T) {
	build := func(op Op, v float64) float64 {
		b := NewBuilder("logic")
		b.MovI(0, v)
		b.Un(op, 0, 0)
		b.Exit()
		p, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		mustVerify(t, p)
		return run(t, p, &testEnv{}, 0)
	}
	if build(OpNot, 0) != 1 || build(OpNot, 5) != 0 || build(OpNot, -2) != 0 {
		t.Error("not semantics wrong")
	}
	if build(OpBoo, 0) != 0 || build(OpBoo, 5) != 1 || build(OpBoo, -2) != 1 {
		t.Error("bool semantics wrong")
	}
}

func TestConditionalJumps(t *testing.T) {
	// Program computes: r0 = (arg > 10) ? 1 : 0 via JGtI.
	b := NewBuilder("cond")
	b.JmpIfI(OpJGtI, 0, 10, "big")
	b.MovI(0, 0)
	b.Exit()
	b.Label("big")
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	if run(t, p, &testEnv{}, 11) != 1 || run(t, p, &testEnv{}, 10) != 0 || run(t, p, &testEnv{}, 3) != 0 {
		t.Error("conditional jump semantics wrong")
	}
}

func TestAllJumpVariants(t *testing.T) {
	type jc struct {
		op       Op
		a, b     float64
		expected bool
	}
	cases := []jc{
		{OpJEq, 2, 2, true}, {OpJEq, 2, 3, false},
		{OpJNe, 2, 3, true}, {OpJNe, 2, 2, false},
		{OpJLt, 2, 3, true}, {OpJLt, 3, 3, false},
		{OpJLe, 3, 3, true}, {OpJLe, 4, 3, false},
		{OpJGt, 4, 3, true}, {OpJGt, 3, 3, false},
		{OpJGe, 3, 3, true}, {OpJGe, 2, 3, false},
	}
	for _, c := range cases {
		b := NewBuilder("jmp")
		b.MovI(1, c.a)
		b.MovI(2, c.b)
		b.JmpIf(c.op, 1, 2, "taken")
		b.MovI(0, 0)
		b.Exit()
		b.Label("taken")
		b.MovI(0, 1)
		b.Exit()
		p, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		mustVerify(t, p)
		got := run(t, p, &testEnv{}, 0) == 1
		if got != c.expected {
			t.Errorf("%v(%v,%v): taken=%v, want %v", c.op, c.a, c.b, got, c.expected)
		}
	}
	// Immediate variants.
	immCases := []jc{
		{OpJEqI, 2, 2, true}, {OpJNeI, 2, 3, true},
		{OpJLtI, 2, 3, true}, {OpJLeI, 3, 3, true},
		{OpJGtI, 4, 3, true}, {OpJGeI, 3, 3, true},
		{OpJGeI, 2, 3, false},
	}
	for _, c := range immCases {
		b := NewBuilder("jmpi")
		b.MovI(1, c.a)
		b.JmpIfI(c.op, 1, c.b, "taken")
		b.MovI(0, 0)
		b.Exit()
		b.Label("taken")
		b.MovI(0, 1)
		b.Exit()
		p, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		mustVerify(t, p)
		got := run(t, p, &testEnv{}, 0) == 1
		if got != c.expected {
			t.Errorf("%v(%v,imm %v): taken=%v, want %v", c.op, c.a, c.b, got, c.expected)
		}
	}
}

func TestLoadStore(t *testing.T) {
	b := NewBuilder("ls")
	b.Load(1, "rate")
	b.ALUI(OpMulI, 1, 1, 2)
	b.Store("doubled", 1)
	b.Mov(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	env := &testEnv{cells: make([]float64, len(p.Symbols))}
	env.cells[0] = 0.04 // "rate"
	if got := run(t, p, env, 0); got != 0.08 {
		t.Errorf("got %v", got)
	}
	if env.cells[1] != 0.08 {
		t.Errorf("store wrote %v", env.cells[1])
	}
	if p.Symbols[0] != "rate" || p.Symbols[1] != "doubled" {
		t.Errorf("symbols = %v", p.Symbols)
	}
}

func TestHelperCall(t *testing.T) {
	b := NewBuilder("helper")
	b.MovI(1, 16)
	b.Call(HelperSqrt)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	env := &testEnv{}
	if got := run(t, p, env, 0); got != 4 {
		t.Errorf("sqrt(16) = %v", got)
	}
	if len(env.helpers) != 1 || env.helpers[0] != HelperSqrt {
		t.Errorf("helper log = %v", env.helpers)
	}
}

func TestHelperClobbersArgRegs(t *testing.T) {
	// After a call, r1-r5 are uninitialized; reading them must be
	// rejected by the verifier.
	b := NewBuilder("clobber")
	b.MovI(1, 1)
	b.Call(HelperNow)
	b.Mov(0, 1) // r1 clobbered!
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, NumBuiltinHelpers); err == nil {
		t.Error("read of clobbered register should fail verification")
	}
}

func TestRunPresetsArgInR0(t *testing.T) {
	b := NewBuilder("arg")
	b.ALUI(OpMulI, 0, 0, 3)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	if got := run(t, p, &testEnv{}, 7); got != 21 {
		t.Errorf("got %v", got)
	}
}

func TestVerifyRejections(t *testing.T) {
	sym := []string{"k"}
	cases := []struct {
		name string
		p    Program
	}{
		{"empty", Program{}},
		{"no-exit", Program{Code: []Instr{{Op: OpMovI, Dst: 0}}}},
		{"fall-off-after-branch", Program{Code: []Instr{
			{Op: OpJGtI, Dst: 0, Imm: 1, Off: 1},
			{Op: OpMovI, Dst: 0},
		}}},
		{"backward-jump", Program{Code: []Instr{
			{Op: OpMovI, Dst: 0},
			{Op: OpJmp, Off: -1},
			{Op: OpExit},
		}}},
		{"zero-offset-jump", Program{Code: []Instr{
			{Op: OpJmp, Off: 0},
			{Op: OpExit},
		}}},
		{"jump-out-of-range", Program{Code: []Instr{
			{Op: OpMovI, Dst: 0},
			{Op: OpJmp, Off: 5},
			{Op: OpExit},
		}}},
		{"bad-dst-reg", Program{Code: []Instr{
			{Op: OpMovI, Dst: 16},
			{Op: OpExit},
		}}},
		{"bad-src-reg", Program{Code: []Instr{
			{Op: OpMovI, Dst: 0},
			{Op: OpMov, Dst: 1, Src: 17},
			{Op: OpExit},
		}}},
		{"bad-lhs-reg", Program{Code: []Instr{
			{Op: OpAdd, Dst: 0, Lhs: 16, Src: 0},
			{Op: OpExit},
		}}},
		{"uninit-lhs-read", Program{Code: []Instr{
			{Op: OpNeg, Dst: 0, Lhs: 3},
			{Op: OpExit},
		}}},
		{"uninit-read", Program{Code: []Instr{
			{Op: OpMov, Dst: 0, Src: 3},
			{Op: OpExit},
		}}},
		{"uninit-exit", Program{Code: []Instr{
			{Op: OpMovI, Dst: 1},
			{Op: OpStore, Src: 1, Cell: 0},
			{Op: OpExit}, // r0 was overwritten? No: r0 is init at entry — use store-only path
		}, Symbols: sym}},
		{"bad-cell", Program{Code: []Instr{
			{Op: OpLoad, Dst: 0, Cell: 2},
			{Op: OpExit},
		}, Symbols: sym}},
		{"negative-cell", Program{Code: []Instr{
			{Op: OpLoad, Dst: 0, Cell: -1},
			{Op: OpExit},
		}, Symbols: sym}},
		{"bad-helper", Program{Code: []Instr{
			{Op: OpMovI, Dst: 1},
			{Op: OpCall, Imm: 99},
			{Op: OpExit},
		}}},
		{"fractional-helper", Program{Code: []Instr{
			{Op: OpMovI, Dst: 1},
			{Op: OpCall, Imm: 1.5},
			{Op: OpExit},
		}}},
		{"unknown-op", Program{Code: []Instr{
			{Op: Op(200)},
			{Op: OpExit},
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Verify(&c.p, NumBuiltinHelpers)
			if c.name == "uninit-exit" {
				// r0 is initialized at entry, so this one actually passes.
				if err != nil {
					t.Errorf("unexpected verify error: %v", err)
				}
				return
			}
			if err == nil {
				t.Errorf("program %q should be rejected", c.name)
			}
			var ve *VerifyError
			if err != nil {
				var ok bool
				ve, ok = err.(*VerifyError)
				if !ok {
					t.Errorf("error type = %T, want *VerifyError", err)
				} else if ve.Error() == "" {
					t.Error("empty error message")
				}
			}
		})
	}
}

func TestVerifyPathSensitiveInit(t *testing.T) {
	// r1 is initialized on only one path; reading it after the merge
	// must be rejected.
	b := NewBuilder("path")
	b.JmpIfI(OpJGtI, 0, 0, "skip")
	b.MovI(1, 5)
	b.Jmp("join")
	b.Label("skip")
	b.MovI(2, 1) // something else
	b.Label("join")
	b.Mov(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, NumBuiltinHelpers); err == nil {
		t.Error("partially-initialized register read should be rejected")
	}

	// Both paths initialize r1: accepted.
	b2 := NewBuilder("path-ok")
	b2.JmpIfI(OpJGtI, 0, 0, "skip")
	b2.MovI(1, 5)
	b2.Jmp("join")
	b2.Label("skip")
	b2.MovI(1, 6)
	b2.Label("join")
	b2.Mov(0, 1)
	b2.Exit()
	p2, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p2)
}

func TestVerifyTooLong(t *testing.T) {
	code := make([]Instr, MaxInsns+1)
	for i := range code {
		code[i] = Instr{Op: OpMovI, Dst: 0}
	}
	code[len(code)-1] = Instr{Op: OpExit}
	if err := Verify(&Program{Code: code}, NumBuiltinHelpers); err == nil {
		t.Error("oversized program should be rejected")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("x")
	b.Jmp("nowhere")
	b.Exit()
	if _, err := b.Finish(); err == nil {
		t.Error("undefined label should error")
	}

	b2 := NewBuilder("dup")
	b2.Label("l")
	b2.MovI(0, 0)
	b2.Label("l")
	b2.Exit()
	if _, err := b2.Finish(); err == nil {
		t.Error("duplicate label should error")
	}

	// Backward label: label bound before the jump.
	b3 := NewBuilder("back")
	b3.Label("top")
	b3.MovI(0, 0)
	b3.Jmp("top")
	b3.Exit()
	if _, err := b3.Finish(); err == nil {
		t.Error("backward jump should error at Finish")
	}
}

func TestDisassembly(t *testing.T) {
	b := NewBuilder("listing2")
	b.Load(1, "false_submit_rate")
	b.JmpIfI(OpJLeI, 1, 0.05, "ok")
	b.MovI(2, 0)
	b.Store("ml_enabled", 2)
	b.MovI(0, 0)
	b.Exit()
	b.Label("ok")
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	asm := p.String()
	for _, want := range []string{"listing2", "load", "[false_submit_rate]", "[ml_enabled]", "jlei", "exit"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func TestMachineStepAccounting(t *testing.T) {
	b := NewBuilder("steps")
	b.MovI(0, 1)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	var m Machine
	if _, err := m.Run(p, &testEnv{}, 0); err != nil {
		t.Fatal(err)
	}
	if m.Steps != 2 {
		t.Errorf("steps = %d, want 2", m.Steps)
	}
	if _, err := m.Run(p, &testEnv{}, 0); err != nil {
		t.Fatal(err)
	}
	if m.Steps != 4 {
		t.Errorf("steps accumulate: %d, want 4", m.Steps)
	}
}

func TestRunawayProgramHitsBudget(t *testing.T) {
	// An unverified program with a self-loop must hit ErrBudget rather
	// than hang (defense in depth).
	p := &Program{Name: "loop", Code: []Instr{
		{Op: OpMovI, Dst: 0},
		{Op: OpJEqI, Dst: 0, Imm: 0, Off: -1}, // would re-execute itself
		{Op: OpExit},
	}}
	var m Machine
	_, err := m.Run(p, &testEnv{}, 0)
	if err == nil {
		t.Fatal("runaway program should error")
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("budget trap must wrap ErrBudget, got %v", err)
	}
	if Classify(err) != TrapBudget {
		t.Errorf("Classify = %v, want TrapBudget", Classify(err))
	}
}

func TestTrapClassification(t *testing.T) {
	// Bad PC: a jump off the end of the code segment.
	badPC := &Program{Name: "badpc", Code: []Instr{
		{Op: OpJmp, Off: 10},
		{Op: OpExit},
	}}
	var m Machine
	_, err := m.Run(badPC, &testEnv{}, 0)
	if Classify(err) != TrapBadPC {
		t.Errorf("bad pc: Classify = %v (%v), want TrapBadPC", Classify(err), err)
	}

	// Bad opcode.
	badOp := &Program{Name: "badop", Code: []Instr{{Op: Op(200)}}}
	_, err = m.Run(badOp, &testEnv{}, 0)
	if Classify(err) != TrapBadOpcode {
		t.Errorf("bad opcode: Classify = %v (%v), want TrapBadOpcode", Classify(err), err)
	}

	// Helper failure surfaces as TrapHelper wrapping the cause.
	call := &Program{Name: "helpfail", Code: []Instr{
		{Op: OpCall, Imm: float64(HelperNow)},
		{Op: OpExit},
	}}
	cause := errors.New("backend down")
	_, err = m.Run(call, &testEnv{helperErr: cause}, 0)
	if Classify(err) != TrapHelper {
		t.Errorf("helper: Classify = %v (%v), want TrapHelper", Classify(err), err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("helper trap must wrap its cause, got %v", err)
	}
	var trap *Trap
	if !errors.As(err, &trap) || trap.Program != "helpfail" || trap.PC != 0 {
		t.Errorf("trap metadata = %+v", trap)
	}

	// Foreign and nil errors.
	if Classify(nil) != TrapNone {
		t.Error("nil must classify as TrapNone")
	}
	if Classify(errors.New("x")) != TrapUnknown {
		t.Error("foreign error must classify as TrapUnknown")
	}
	for c := TrapNone; c <= TrapUnknown; c++ {
		if c.String() == "" {
			t.Errorf("trap code %d has no name", c)
		}
	}
}

func TestOpStringCoverage(t *testing.T) {
	for op := OpMov; op < opMax; op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if Op(250).String() != "op(250)" {
		t.Error("unknown opcode format wrong")
	}
}

// TestRunMasksRegisterFields: a register field past r15 — which only an
// unverified program can carry — names the register it is modulo
// NumRegs instead of indexing past the register file.
func TestRunMasksRegisterFields(t *testing.T) {
	p := &Program{Name: "r16", Code: []Instr{
		{Op: OpMovI, Dst: 16, Imm: 1},                // movi r16, 1: r0 = 1
		{Op: OpAddI, Dst: 0x47, Lhs: 0xf0, Imm: 2},   // r7 = r0 + 2
		{Op: OpAdd, Dst: 0xff, Lhs: 0x10, Src: 0x27}, // r15 = r0 + r7
		{Op: OpMov, Dst: 0x20, Src: 0x1f},            // r0 = r15
		{Op: OpExit},
	}}
	var m Machine
	got, err := m.Run(p, nil, 0)
	if err != nil || got != 4 {
		t.Fatalf("Run = %v, %v; want 4, nil", got, err)
	}
}
