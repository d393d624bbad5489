package compile

import (
	"os"
	"path/filepath"
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// regsOf returns the registers in writes and reads for one instruction,
// by opcode. OpCall's implicit r1–r5 reads and r0–r5 writes are left
// out: argument set-up is the one place r5 may appear.
func regsOf(in vm.Instr) (writes, reads []uint8) {
	switch in.Op {
	case vm.OpMov:
		return []uint8{in.Dst}, []uint8{in.Src}
	case vm.OpMovI, vm.OpLoad:
		return []uint8{in.Dst}, nil
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMin, vm.OpMax:
		return []uint8{in.Dst}, []uint8{in.Lhs, in.Src}
	case vm.OpAddI, vm.OpSubI, vm.OpMulI, vm.OpDivI, vm.OpNeg, vm.OpAbs, vm.OpNot, vm.OpBoo:
		return []uint8{in.Dst}, []uint8{in.Lhs}
	case vm.OpJEq, vm.OpJNe, vm.OpJLt, vm.OpJLe, vm.OpJGt, vm.OpJGe:
		return nil, []uint8{in.Dst, in.Src}
	case vm.OpJEqI, vm.OpJNeI, vm.OpJLtI, vm.OpJLeI, vm.OpJGtI, vm.OpJGeI:
		return nil, []uint8{in.Dst}
	case vm.OpStore:
		return nil, []uint8{in.Src}
	}
	return nil, nil
}

func isALU(op vm.Op) bool { return op >= vm.OpAdd && op <= vm.OpBoo }

// TestCodegenEmitsNoOperandCopies compiles every grailcheck fixture
// spec, the check_manifest deployment and the fire_wide guardrails at
// both levels and checks that three-address emission left no
// two-address fix-up behind: no mov into a register the next
// instruction overwrites with an ALU result (the copy the ALU op could
// have read in place), and no use of r5 (the scratch register a
// non-commutative op used to park its right operand in) outside the
// argument set-up of a helper call.
func TestCodegenEmitsNoOperandCopies(t *testing.T) {
	type source struct{ name, text string }
	var srcs []source
	paths, err := filepath.Glob("../../cmd/grailcheck/testdata/*.grail")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture specs: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{filepath.Base(path), string(data)})
	}
	for _, f := range gen.BuildManifest(1, 4).Files {
		srcs = append(srcs, source{f.Name, f.Source})
	}
	wide := gen.Wide(1, 64, 0.2)
	srcs = append(srcs, source{"fire_wide", wide.Source}, source{"fire_wide watcher", wide.WatcherSource})
	programs, rejected := 0, 0
	for _, level := range []int{0, 1} {
		for _, s := range srcs {
			f, err := spec.ParseChecked(s.text)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			for _, g := range f.Guardrails {
				c, err := GuardrailWith(g, Options{Level: level})
				if err != nil {
					// The vet fixtures plant divisions by a provable
					// zero, which the verifier rejects.
					rejected++
					continue
				}
				programs++
				checkCopyFree(t, c.Program)
			}
		}
	}
	if programs < 400 || rejected > 4 {
		t.Fatalf("checked %d programs, %d rejected", programs, rejected)
	}
	t.Logf("checked %d programs, %d rejected", programs, rejected)

	// What that buys on the fire_wide benchmark's guardrail when every
	// rule holds: 92 steps, one per IR operation, where two-address
	// emission took 134 (42 of them operand copies).
	cs, err := Source(wide.Source)
	if err != nil {
		t.Fatal(err)
	}
	p := cs[0].Program
	b := 0
	for wide.IsViolating(b) {
		b++
	}
	e := newEnv(p)
	for i, k := range wide.Keys {
		e.vals[k] = wide.Row(b)[i]
	}
	var m vm.Machine
	if out, err := m.Run(p, e, 0); err != nil || out != 1 {
		t.Fatalf("fire_wide batch %d: Run = %v, %v; want the rules to hold", b, out, err)
	}
	if m.Steps > 92 {
		t.Errorf("fire_wide's holding path runs %d steps, want at most 92\n%s", m.Steps, p)
	}
}

func checkCopyFree(t *testing.T, p *vm.Program) {
	t.Helper()
	code := p.Code
	for pc, in := range code {
		if in.Op == vm.OpMov && pc+1 < len(code) && isALU(code[pc+1].Op) && code[pc+1].Dst == in.Dst {
			t.Errorf("%s pc %d: %s is copied into and then overwritten by %s\n%s",
				p.Name, pc, p.InstrString(pc), p.InstrString(pc+1), p)
		}
		writes, reads := regsOf(in)
		uses5 := false
		for _, r := range append(writes, reads...) {
			uses5 = uses5 || r == 5
		}
		if !uses5 {
			continue
		}
		// r5 may only be written as a call argument: a mov or movi into
		// it, followed by nothing but argument moves up to the call.
		ok := (in.Op == vm.OpMov || in.Op == vm.OpMovI) && in.Dst == 5
		for next := pc + 1; ok; next++ {
			if next == len(code) {
				ok = false
				break
			}
			if code[next].Op == vm.OpCall {
				break
			}
			w, _ := regsOf(code[next])
			ok = (code[next].Op == vm.OpMov || code[next].Op == vm.OpMovI) && w[0] >= 1 && w[0] <= 5
		}
		if !ok {
			t.Errorf("%s pc %d: %s uses r5 outside a call's argument set-up\n%s", p.Name, pc, p.InstrString(pc), p)
		}
	}
}
