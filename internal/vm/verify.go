package vm

import (
	"fmt"
)

// VerifyError describes why a program was rejected, pointing at the
// offending instruction and naming the program so that multi-guardrail
// load failures are attributable to the spec that caused them.
type VerifyError struct {
	// Name is the rejected program's name (usually the guardrail name);
	// empty for anonymous programs.
	Name string
	// PC is the faulting instruction's index.
	PC int
	// Instr is the disassembled faulting instruction, when PC addresses
	// a decodable instruction.
	Instr string
	// Reason explains the rejection.
	Reason string
}

// Error implements error.
func (e *VerifyError) Error() string {
	prog := ""
	if e.Name != "" {
		prog = fmt.Sprintf(" %q", e.Name)
	}
	if e.Instr != "" {
		return fmt.Sprintf("vm: verify%s failed at pc=%d (%s): %s", prog, e.PC, e.Instr, e.Reason)
	}
	return fmt.Sprintf("vm: verify%s failed at pc=%d: %s", prog, e.PC, e.Reason)
}

func vErr(p *Program, pc int, format string, args ...any) error {
	e := &VerifyError{PC: pc, Reason: fmt.Sprintf(format, args...)}
	if p != nil {
		e.Name = p.Name
		if pc >= 0 && pc < len(p.Code) {
			e.Instr = p.fmtInstr(p.Code[pc])
		}
	}
	return e
}

// Verify statically checks a program for in-kernel safety, mirroring the
// eBPF verifier's guarantees scaled to this ISA. A structural pass
// checks the program shape:
//
//   - program is non-empty and at most MaxInsns instructions;
//   - every opcode is known and its register operands are in range;
//   - all jumps are strictly forward (loop freedom ⇒ termination) and
//     land inside the program;
//   - OpLoad/OpStore cell indices are within the symbol table;
//   - OpCall helper IDs are within the provided helper set.
//
// An abstract interpreter (analysis.go) then proves the program
// trap-free in one ascending sweep over the instructions, which the
// forward-only jumps make exact: execution cannot fall off the end,
// every register read is preceded by a write on all paths (r0 is the
// only register defined at entry, carrying the trigger argument),
// helper arguments satisfy their per-helper contracts (HelperAction's
// dispatch index must be a provably small non-negative number), and no
// division has a provably-always-zero divisor.
//
// On success Verify records the proof in p.Meta: the certified
// worst-case step bound (MaxSteps), trap-freedom (TrapFree), and
// whether every divisor was proven non-zero (DivProven). These are
// facts for admission, budgets and provenance; the interpreter keeps
// its guards regardless. Verify returns nil if the program is safe to
// load.
func Verify(p *Program, numHelpers int) error {
	_, err := Prove(p, numHelpers)
	return err
}

// Prove is Verify that also returns the proof object: the open-world
// Analysis that AnalyzeWith(p, numHelpers, nil) returns, so a caller
// that verifies a program need not analyze it again. Like Verify it
// records the proof in p.Meta. Do not modify the result.
func Prove(p *Program, numHelpers int) (*Analysis, error) {
	if err := verifyStructure(p, numHelpers); err != nil {
		return nil, err
	}
	a, err := analyze(p)
	if err != nil {
		return nil, err
	}
	p.Meta.MaxSteps = a.MaxSteps
	p.Meta.TrapFree = true
	p.Meta.DivProven = a.DivProven
	return a, nil
}

// AnalyzeWith runs the abstract interpreter on a structurally-checked
// program and returns the proof object without mutating p.Meta. env
// carries certified input ranges for feature-store cells: LOADs of cells
// it covers analyze as the given interval instead of top (a nil env is
// the open world). Refining inputs can only shrink the reachable state
// space, so a program that verifies open-world stays verifiable under
// any env — except that a division whose divisor collapses to a
// provable constant zero under the env is rejected, which is exactly
// the deployment-level bug the refinement exists to surface.
func AnalyzeWith(p *Program, numHelpers int, env CellEnv) (*Analysis, error) {
	if err := verifyStructure(p, numHelpers); err != nil {
		return nil, err
	}
	return analyzeEnv(p, env)
}

// verifyStructure is the per-instruction structural pass; the abstract
// interpreter assumes it has run.
func verifyStructure(p *Program, numHelpers int) error {
	n := len(p.Code)
	if n == 0 {
		return vErr(p, 0, "empty program")
	}
	if n > MaxInsns {
		return vErr(p, 0, "program too long: %d > %d", n, MaxInsns)
	}
	for pc, in := range p.Code {
		if in.Op <= OpInvalid || in.Op >= opMax {
			return vErr(p, pc, "unknown opcode %d", in.Op)
		}
		if int(in.Dst) >= NumRegs {
			return vErr(p, pc, "dst register r%d out of range", in.Dst)
		}
		if int(in.Src) >= NumRegs {
			return vErr(p, pc, "src register r%d out of range", in.Src)
		}
		if int(in.Lhs) >= NumRegs {
			return vErr(p, pc, "lhs register r%d out of range", in.Lhs)
		}
		switch in.Op {
		case OpJmp, OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe,
			OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI:
			if in.Off < 1 {
				return vErr(p, pc, "non-forward jump offset %d", in.Off)
			}
			if pc+1+int(in.Off) > n {
				return vErr(p, pc, "jump target %d outside program", pc+1+int(in.Off))
			}
		case OpLoad, OpStore:
			if in.Cell < 0 || int(in.Cell) >= len(p.Symbols) {
				return vErr(p, pc, "cell index %d outside symbol table (%d symbols)", in.Cell, len(p.Symbols))
			}
		case OpCall:
			h := int(in.Imm)
			if float64(h) != in.Imm || h < 0 || h >= numHelpers {
				return vErr(p, pc, "helper id %v not in [0,%d)", in.Imm, numHelpers)
			}
		}
	}
	return nil
}
