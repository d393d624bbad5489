package vm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// mustBuild finishes a builder or fails the test.
func mustBuild(t *testing.T, b *Builder) *Program {
	t.Helper()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wantReject verifies that Verify rejects p with a *VerifyError whose
// message contains every given fragment, and that the reason is
// non-empty.
func wantReject(t *testing.T, p *Program, fragments ...string) *VerifyError {
	t.Helper()
	err := Verify(p, NumBuiltinHelpers)
	if err == nil {
		t.Fatalf("verifier accepted unsafe program %q:\n%s", p.Name, p)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("rejection is not a *VerifyError: %T %v", err, err)
	}
	if ve.Reason == "" {
		t.Fatalf("rejection carries an empty reason: %v", err)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("rejection %q missing %q", err, f)
		}
	}
	if p.Meta.TrapFree {
		t.Error("rejected program still marked TrapFree")
	}
	return ve
}

// TestUninitOnOneBranchOfMerge is the classic merge-point case: r6 is
// written on only one arm of a diamond, so the read after the join must
// be rejected even though one concrete path through the program is fine.
func TestUninitOnOneBranchOfMerge(t *testing.T) {
	b := NewBuilder("uninit-merge")
	b.JmpIfI(OpJGtI, 0, 5, "skip") // r0 > 5 → skip the write
	b.MovI(6, 1)                   // r6 written on fallthrough arm only
	b.Label("skip")
	b.Mov(0, 6) // read after merge: uninit when the jump was taken
	b.Exit()
	ve := wantReject(t, mustBuild(t, b), "uninitialized register r6")
	if ve.PC != 2 {
		t.Errorf("rejection at pc=%d, want 2", ve.PC)
	}

	// Writing r6 on both arms makes the same read safe.
	b = NewBuilder("init-both")
	b.JmpIfI(OpJGtI, 0, 5, "other")
	b.MovI(6, 1)
	b.Jmp("join")
	b.Label("other")
	b.MovI(6, 2)
	b.Label("join")
	b.Mov(0, 6)
	b.Exit()
	p := mustBuild(t, b)
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatalf("both-arms-initialized program rejected: %v", err)
	}
}

// TestJoinAndWidenLattice unit-tests the interval lattice operations
// the merge logic is built from.
func TestJoinAndWidenLattice(t *testing.T) {
	a := absVal{num: true, lo: 1, hi: 3}
	bv := absVal{num: true, lo: 2, hi: 8}
	j := join(a, bv)
	if !j.num || j.lo != 1 || j.hi != 8 || j.nan {
		t.Errorf("join([1,3],[2,8]) = %+v, want [1,8]", j)
	}
	if j := join(a, absVal{nan: true}); !j.nan || j.lo != 1 || j.hi != 3 {
		t.Errorf("join with pure NaN = %+v, want [1,3]+nan", j)
	}

	// Widening accelerates any bound that grew to its infinity.
	w := widen(a, absVal{num: true, lo: 0, hi: 3})
	if !math.IsInf(w.lo, -1) || w.hi != 3 {
		t.Errorf("widen lower growth = %+v, want lo=-Inf hi=3", w)
	}
	w = widen(a, absVal{num: true, lo: 1, hi: 4})
	if w.lo != 1 || !math.IsInf(w.hi, 1) {
		t.Errorf("widen upper growth = %+v, want lo=1 hi=+Inf", w)
	}
	// No growth → widen degenerates to join (stable fixpoint).
	if w := widen(a, a); w != a {
		t.Errorf("widen(x,x) = %+v, want %+v", w, a)
	}
}

// TestWideningAtRepeatedJoins drives 20 joins into one merge point,
// more than the 16 after which the analyzer used to widen: a long
// cascade of branches all targeting the same join must converge in the
// one ascending sweep and verify.
func TestWideningAtRepeatedJoins(t *testing.T) {
	b := NewBuilder("join-cascade")
	b.MovI(6, 0)
	for i := 0; i < 20; i++ {
		b.JmpIfI(OpJLeI, 0, float64(i), "join")
		b.ALUI(OpAddI, 6, 6, 1)
	}
	b.Label("join")
	b.Mov(0, 6)
	b.Exit()
	p := mustBuild(t, b)
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatalf("join cascade rejected: %v", err)
	}
	var m Machine
	out, err := m.Run(p, &testEnv{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// r0=3 falls through while 3 > i (incrementing r6 three times),
	// then jumps at i=3.
	if out != 3 {
		t.Errorf("cascade(3) = %v, want 3", out)
	}
	if int(m.Steps) > p.Meta.MaxSteps {
		t.Errorf("actual steps %d exceed certified bound %d", m.Steps, p.Meta.MaxSteps)
	}
}

// TestJoinsDoNotWiden: 18 edges that each set r6 to a constant join in
// one block, and the value it stores is exactly their hull. Seventeen
// jlti r0, i branches (i = 1…17, increasing, so that every edge stays
// reachable under refinement) each lead to a movi r6, i, and the
// fall-through sets r6 to 0. An analyzer that widens after 16 joins
// reads [0, +Inf] here: the last edge's growth goes to infinity.
func TestJoinsDoNotWiden(t *testing.T) {
	const n = 17
	b := NewBuilder("join-hull")
	for i := 1; i <= n; i++ {
		b.JmpIfI(OpJLtI, 0, float64(i), fmt.Sprintf("set%d", i))
	}
	b.MovI(6, 0)
	b.Jmp("join")
	for i := 1; i <= n; i++ {
		b.Label(fmt.Sprintf("set%d", i))
		b.MovI(6, float64(i))
		if i < n {
			b.Jmp("join")
		}
	}
	b.Label("join")
	b.Store("out", 6)
	b.MovI(0, 1)
	b.Exit()
	an, err := Prove(mustBuild(t, b), NumBuiltinHelpers)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Stores) != 1 {
		t.Fatalf("%d store facts, want 1", len(an.Stores))
	}
	if got, want := an.Stores[0].Val, RangeInterval(0, n); got != want {
		t.Errorf("stored r6 = %v, want %v", got, want)
	}
}

// TestHelperContracts covers the per-helper argument contracts: the
// HelperAction dispatch index must be a provably-bounded non-NaN value.
func TestHelperContracts(t *testing.T) {
	t.Run("const-index-accepted", func(t *testing.T) {
		b := NewBuilder("action-ok")
		b.MovI(1, 3)
		b.Call(HelperAction)
		b.Exit()
		p := mustBuild(t, b)
		if err := Verify(p, NumBuiltinHelpers); err != nil {
			t.Fatalf("constant action index rejected: %v", err)
		}
	})
	t.Run("loaded-index-rejected-nan", func(t *testing.T) {
		b := NewBuilder("action-load")
		b.Load(1, "idx") // store cells are unconstrained: may be NaN
		b.Call(HelperAction)
		b.Exit()
		wantReject(t, mustBuild(t, b), "helper action", "may be NaN")
	})
	t.Run("negative-index-rejected", func(t *testing.T) {
		b := NewBuilder("action-neg")
		b.MovI(1, -1)
		b.Call(HelperAction)
		b.Exit()
		wantReject(t, mustBuild(t, b), "helper action", "not provably within")
	})
	t.Run("huge-index-rejected", func(t *testing.T) {
		b := NewBuilder("action-huge")
		b.MovI(1, 1e18)
		b.Call(HelperAction)
		b.Exit()
		wantReject(t, mustBuild(t, b), "not provably within")
	})
	t.Run("range-proved-by-branch", func(t *testing.T) {
		// A loaded index is fine once branches pin its range: the taken
		// edge of an ordered comparison also proves non-NaN.
		b := NewBuilder("action-guarded")
		b.Load(6, "idx")
		b.JmpIfI(OpJGeI, 6, 0, "lo_ok")
		b.MovI(0, 0)
		b.Exit()
		b.Label("lo_ok")
		b.JmpIfI(OpJLeI, 6, 100, "hi_ok")
		b.MovI(0, 0)
		b.Exit()
		b.Label("hi_ok")
		b.Mov(1, 6)
		b.Call(HelperAction)
		b.Exit()
		p := mustBuild(t, b)
		if err := Verify(p, NumBuiltinHelpers); err != nil {
			t.Fatalf("branch-guarded action index rejected: %v", err)
		}
	})
	t.Run("uninit-arg-rejected", func(t *testing.T) {
		b := NewBuilder("sqrt-uninit")
		b.Call(HelperSqrt) // r1 never written
		b.Exit()
		wantReject(t, mustBuild(t, b), "uninitialized register r1")
	})
}

// TestDivisionPolicy pins the three-way division policy: a
// provably-always-zero divisor is rejected, a possibly-zero divisor is
// accepted with DivProven=false (x/0 = 0 applies at run time), and a
// proven-nonzero divisor yields DivProven=true.
func TestDivisionPolicy(t *testing.T) {
	t.Run("constant-zero-rejected", func(t *testing.T) {
		b := NewBuilder("div-const0")
		b.MovI(6, 1)
		b.ALUI(OpDivI, 6, 6, 0)
		b.Mov(0, 6)
		b.Exit()
		ve := wantReject(t, mustBuild(t, b), "provably always zero")
		if ve.PC != 1 {
			t.Errorf("rejection at pc=%d, want 1", ve.PC)
		}
	})
	t.Run("folded-zero-rejected", func(t *testing.T) {
		// The zero arrives through arithmetic, not as a literal: the
		// interval analysis still proves it.
		b := NewBuilder("div-folded0")
		b.MovI(6, 4)
		b.ALUI(OpSubI, 6, 6, 4) // r6 = 0
		b.MovI(7, 1)
		b.ALU(OpDiv, 7, 7, 6)
		b.Mov(0, 7)
		b.Exit()
		wantReject(t, mustBuild(t, b), "provably always zero")
	})
	t.Run("maybe-zero-keeps-guard", func(t *testing.T) {
		b := NewBuilder("div-maybe0")
		b.MovI(6, 1)
		b.Load(7, "d")
		b.ALU(OpDiv, 6, 6, 7)
		b.Mov(0, 6)
		b.Exit()
		p := mustBuild(t, b)
		if err := Verify(p, NumBuiltinHelpers); err != nil {
			t.Fatalf("possibly-zero divisor rejected: %v", err)
		}
		if !p.Meta.TrapFree || p.Meta.DivProven {
			t.Errorf("Meta = %+v, want TrapFree && !DivProven", p.Meta)
		}
		// A verified program still gets x/0 = 0.
		var m Machine
		out, err := m.Run(p, &testEnv{cells: []float64{0}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out != 0 {
			t.Errorf("1/0 = %v, want 0", out)
		}
	})
	t.Run("branch-proven-nonzero", func(t *testing.T) {
		b := NewBuilder("div-guarded")
		b.MovI(6, 100)
		b.Load(7, "d")
		b.JmpIfI(OpJGtI, 7, 0, "divide")
		b.MovI(0, 0)
		b.Exit()
		b.Label("divide")
		b.ALU(OpDiv, 6, 6, 7)
		b.Mov(0, 6)
		b.Exit()
		p := mustBuild(t, b)
		if err := Verify(p, NumBuiltinHelpers); err != nil {
			t.Fatalf("branch-guarded division rejected: %v", err)
		}
		if !p.Meta.DivProven {
			t.Errorf("Meta = %+v, want DivProven", p.Meta)
		}
		var m Machine
		out, err := m.Run(p, &testEnv{cells: []float64{4}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out != 25 {
			t.Errorf("100/4 = %v, want 25", out)
		}
	})
}

// TestMaxStepsCertification checks the certified worst-case bound: it
// must be exact on straight-line code, pick the longest arm of a
// branch, and dominate the actual step count on every input.
func TestMaxStepsCertification(t *testing.T) {
	b := NewBuilder("line")
	b.MovI(0, 1)
	b.Exit()
	p := mustBuild(t, b)
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	if p.Meta.MaxSteps != 2 {
		t.Errorf("straight-line MaxSteps = %d, want 2", p.Meta.MaxSteps)
	}

	// Asymmetric diamond: short arm 1 insn, long arm 3 insns.
	b = NewBuilder("diamond")
	b.JmpIfI(OpJGtI, 0, 0, "long")
	b.MovI(0, 0)
	b.Jmp("join")
	b.Label("long")
	b.MovI(0, 1)
	b.ALUI(OpAddI, 0, 0, 1)
	b.ALUI(OpMulI, 0, 0, 2)
	b.Label("join")
	b.Exit()
	p = mustBuild(t, b)
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	// Long path: jgti, movi, addi, muli, exit = 5 steps.
	if p.Meta.MaxSteps != 5 {
		t.Errorf("diamond MaxSteps = %d, want 5", p.Meta.MaxSteps)
	}
	for _, arg := range []float64{-1, 0, 1, math.NaN()} {
		var m Machine
		if _, err := m.Run(p, &testEnv{}, arg); err != nil {
			t.Fatalf("run(%v): %v", arg, err)
		}
		if int(m.Steps) > p.Meta.MaxSteps {
			t.Errorf("run(%v) took %d steps, certified bound %d", arg, m.Steps, p.Meta.MaxSteps)
		}
	}
}

// TestFallOffEnd: a program whose only path reaches the end without
// OpExit must be rejected by the dataflow pass (reachability of the
// virtual end node), not by a runtime bad-pc trap.
func TestFallOffEnd(t *testing.T) {
	p := &Program{Name: "fall-off", Code: []Instr{
		{Op: OpMovI, Dst: 0, Imm: 1},
	}}
	wantReject(t, p, "fall off the end")
}

// TestDeadBranchPrecision: comparison refinement must prove branches
// dead. Here the taken edge of jgti r6, 5 is impossible because r6 is
// the constant 3, so the uninitialized read on that edge is
// unreachable and the program verifies.
func TestDeadBranchPrecision(t *testing.T) {
	b := NewBuilder("dead-branch")
	b.MovI(6, 3)
	b.JmpIfI(OpJGtI, 6, 5, "dead") // 3 > 5: never taken
	b.MovI(0, 1)
	b.Exit()
	b.Label("dead")
	b.Mov(0, 9) // r9 uninitialized — but unreachable
	b.Exit()
	p := mustBuild(t, b)
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatalf("dead branch not proven dead: %v", err)
	}
}

// TestNaNRefinementSoundness: a NaN-valued cell falls through every
// ordered comparison, so the analyzer must keep the fallthrough edge's
// NaN possibility — accepting this program with DivProven would be
// unsound (raw a/NaN = NaN ≠ safeDiv? no: safeDiv(a, NaN) is also
// a/NaN — but an Action contract must still see the NaN).
func TestNaNRefinementSoundness(t *testing.T) {
	// jlei r6, 0 fallthrough means r6 > 0 OR r6 is NaN: using r6 as an
	// action index must be rejected.
	b := NewBuilder("nan-through-cmp")
	b.Load(6, "x")
	b.JmpIfI(OpJLeI, 6, 0, "out")
	b.JmpIfI(OpJGtI, 6, 100, "out")
	b.Mov(1, 6) // still possibly NaN on this path
	b.Call(HelperAction)
	b.Label("out")
	b.MovI(0, 0)
	b.Exit()
	wantReject(t, mustBuild(t, b), "may be NaN")
}

// TestTrapMessagesCarryDisassembly: runtime traps name the faulting pc
// and the disassembled instruction.
func TestTrapMessagesCarryDisassembly(t *testing.T) {
	b := NewBuilder("trapper")
	b.MovI(1, 2)
	b.Call(HelperAction)
	b.Exit()
	p := mustBuild(t, b)
	if err := Verify(p, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	var m Machine
	_, err := m.Run(p, &testEnv{helperErr: errors.New("backend down")}, 0)
	if err == nil {
		t.Fatal("failing helper did not trap")
	}
	for _, want := range []string{"pc=1", "call", "helper#2", "backend down"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("trap %q missing %q", err, want)
		}
	}

	// An unverified program's trap carries the same detail.
	p2 := &Program{Name: "bad-op", Code: []Instr{{Op: opMax + 1}}}
	_, err = m.Run(p2, &testEnv{}, 0)
	if err == nil {
		t.Fatal("invalid opcode did not trap")
	}
	if !strings.Contains(err.Error(), "pc=0") {
		t.Errorf("guarded trap missing pc: %q", err)
	}
}

// TestVerifyErrorPointsAtInstruction: rejections disassemble the
// faulting instruction in the error text.
func TestVerifyErrorPointsAtInstruction(t *testing.T) {
	b := NewBuilder("uninit")
	b.Mov(0, 7)
	b.Exit()
	err := Verify(mustBuild(t, b), NumBuiltinHelpers)
	if err == nil {
		t.Fatal("uninit read accepted")
	}
	for _, want := range []string{"pc=0", "mov", "r7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verify error %q missing %q", err, want)
		}
	}
}
