// Package compile lowers checked guardrail specifications (package spec)
// to verified monitor VM programs (package vm). The compiler is a pass
// pipeline over a linear IR:
//
//	parse → check → lower (AST → IR, ir.go/lower.go)
//	      → IR passes (passes.go): constfold → cse → copyprop →
//	        immsel → dce                             [-O1 only]
//	      → codegen (linear-scan allocation, branch fusion, codegen.go)
//	      → vm.Prove (vm.Verify keeping the proof)
//
// Codegen appends vm.Instr values straight into the program and patches
// each jump from its target block's start pc.
//
// -O1 runs codegen twice: on the lowered IR, whose program is the
// Meta.PreOptInsns baseline and must verify too (the differential
// gate), and on the optimized IR. -O1 accepts every guardrail -O0
// accepts: codegen cannot spill, so when the optimized program needs
// more live values than the register file holds, the -O0 program is
// built instead (Meta.OptLevel 0).
//
// One program is produced per guardrail. The program evaluates the
// conjunction of the guardrail's rules; when the property holds it
// returns 1, and when it is violated it executes the guardrail's action
// sequence (SAVE actions natively as feature-store stores, other actions
// as HelperAction calls dispatched by the monitor runtime) and returns 0.
package compile

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Compiled is a guardrail lowered to an executable monitor image.
type Compiled struct {
	// Name is the guardrail name.
	Name string
	// Source is the checked AST the program was compiled from.
	Source *spec.Guardrail
	// Triggers are the guardrail's trigger specs; the monitor runtime
	// binds them to kernel timers and hook sites at load time.
	Triggers []spec.Trigger
	// Program evaluates the rule conjunction and, on violation, performs
	// the action sequence. Returns 1 (holds) or 0 (violated) in r0.
	Program *vm.Program
	// Actions lists the guardrail's actions. The program dispatches
	// non-SAVE actions by index through vm.HelperAction; the monitor
	// runtime interprets the index against this slice.
	Actions []spec.Action
	// Footprint is what the guardrail touches, stated once here for the
	// kernel admission test, the interference analyzer, the model checker
	// and the rollout scope to share.
	Footprint Footprint
	// Proof is the open-world analysis vm.Prove verified Program with,
	// kept so the deployment checks (interfere.Deployment.Analysis) need
	// not analyze the program again. It is never serialized, and it is
	// shared: do not modify it. Whoever swaps Program for another
	// program must clear it.
	Proof *vm.Analysis
}

// Footprint is a compiled guardrail's coupling surface: where it
// attaches and which feature-store keys its program — not its source,
// so a LOAD the optimizer proved dead does not count — reads and writes.
type Footprint struct {
	// Sites are the FUNCTION hook sites, sorted and unique.
	Sites []string
	// Timers are the TIMER triggers, in source order.
	Timers []*spec.TimerTrigger
	// Loads and Stores are the feature keys the program LOADs and
	// STOREs, each sorted and unique.
	Loads, Stores []string
}

func sortedHas(sorted []string, key string) bool {
	i := sort.SearchStrings(sorted, key)
	return i < len(sorted) && sorted[i] == key
}

func footprintOf(triggers []spec.Trigger, p *vm.Program) Footprint {
	fp := Footprint{Loads: vm.LoadedKeys(p), Stores: vm.StoredKeys(p)}
	for _, t := range triggers {
		switch tt := t.(type) {
		case *spec.FuncTrigger:
			if !sortedHas(fp.Sites, tt.Site) {
				fp.Sites = append(fp.Sites, tt.Site)
				sort.Strings(fp.Sites)
			}
		case *spec.TimerTrigger:
			fp.Timers = append(fp.Timers, tt)
		}
	}
	return fp
}

// Register conventions for generated code.
const (
	// regStackBase is the first allocatable general-purpose register;
	// regStackTop the last. Helper-call registers r1–r5 and the return
	// register r0 are below the allocatable file.
	regStackBase = 6
	regStackTop  = 15
)

// MaxReportArgs bounds REPORT arguments: violation values are passed to
// the runtime in helper-argument registers r2–r5.
const MaxReportArgs = 4

// Options selects the optimization level and pass tracing.
type Options struct {
	// Level is the optimization level: 0 compiles by straight lowering
	// and codegen, 1 (the default used by File/Guardrail/Source) runs
	// the IR pass pipeline first, falling back to the level-0 program
	// when the optimized one does not fit the register file.
	Level int
	// Trace, when non-nil, receives the textual IR after lowering and
	// after each pass (grailc -S).
	Trace io.Writer
}

// DefaultOptions is what the plain File/Guardrail/Source entry points
// use: full optimization, no tracing.
var DefaultOptions = Options{Level: 1}

// File compiles every guardrail in a checked file at -O1.
func File(f *spec.File) ([]*Compiled, error) { return FileWith(f, DefaultOptions) }

// FileWith checks a parsed file and compiles every guardrail in it.
func FileWith(f *spec.File, o Options) ([]*Compiled, error) {
	if err := spec.Check(f); err != nil {
		return nil, err
	}
	return CheckedFile(f, o)
}

// CheckedFile compiles every guardrail of a file the caller has already
// passed through spec.Check (a loader that lints between check and
// compile checks once, not twice).
func CheckedFile(f *spec.File, o Options) ([]*Compiled, error) {
	out := make([]*Compiled, 0, len(f.Guardrails))
	for _, g := range f.Guardrails {
		c, err := compileChecked(g, o)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Guardrail compiles a single guardrail at -O1, checking it first.
func Guardrail(g *spec.Guardrail) (*Compiled, error) { return GuardrailWith(g, DefaultOptions) }

// GuardrailWith compiles a single guardrail, checking it first.
func GuardrailWith(g *spec.Guardrail, o Options) (*Compiled, error) {
	if err := spec.CheckGuardrail(g); err != nil {
		return nil, err
	}
	return compileChecked(g, o)
}

// Source parses, checks, and compiles a specification source at -O1.
func Source(src string) ([]*Compiled, error) { return SourceWith(src, DefaultOptions) }

// SourceWith parses, checks, and compiles a specification source text.
func SourceWith(src string, o Options) ([]*Compiled, error) {
	f, err := spec.ParseChecked(src)
	if err != nil {
		return nil, err
	}
	return CheckedFile(f, o)
}

func compileChecked(g *spec.Guardrail, o Options) (*Compiled, error) {
	f, err := lowerGuardrail(g)
	if err != nil {
		return nil, fmt.Errorf("compile: guardrail %q: %w", g.Name, err)
	}
	trace(o, "lower", f)

	// Codegen the unoptimized IR first: at -O0 this is the final
	// program; at -O1 its length is the Meta.PreOptInsns baseline the P5
	// overhead accounting compares against, and it is the program built
	// when the optimized one does not fit the register file. Codegen
	// does not mutate the IR, so the pipeline can keep rewriting it
	// afterwards.
	pre, preErr := genProgram(f, g.Name)
	p, level := pre, 0
	if o.Level > 0 {
		for _, ps := range passesForLevel(o.Level) {
			ps.run(f)
			trace(o, ps.name, f)
		}
		p, err = genProgram(f, g.Name)
		switch {
		case err == nil:
			level = o.Level
		case errors.Is(err, errRegisterFile) && preErr == nil:
			// CSE keeps a loaded value live where -O0 loads it again, so
			// a rule that fits unoptimized can overflow optimized; -O1
			// never rejects what -O0 accepts.
			p = pre
		default:
			return nil, fmt.Errorf("compile: guardrail %q: %w", g.Name, err)
		}
	} else if preErr != nil {
		return nil, fmt.Errorf("compile: guardrail %q: %w", g.Name, preErr)
	}
	p.Meta = vm.ProgramMeta{OptLevel: level, PostOptInsns: len(p.Code)}
	if preErr == nil {
		p.Meta.PreOptInsns = len(pre.Code)
	} else {
		// The unoptimized form did not fit the register file but the
		// optimized one did; there is no meaningful baseline.
		p.Meta.PreOptInsns = len(p.Code)
	}

	proof, err := vm.Prove(p, vm.NumBuiltinHelpers)
	if err != nil {
		return nil, fmt.Errorf("compile: guardrail %q failed verification: %w", g.Name, err)
	}
	// Differential gate: an optimized build must also verify in its
	// unoptimized form. A guardrail whose -O0 lowering the verifier
	// rejects but whose -O1 form passes (because an IR pass folded the
	// unsafe construct away) would make safety depend on the optimizer —
	// exactly the coupling the static verifier exists to rule out.
	if p != pre && preErr == nil {
		if err := vm.Verify(pre, vm.NumBuiltinHelpers); err != nil {
			return nil, fmt.Errorf("compile: guardrail %q: -O0 baseline failed verification (differential gate): %w", g.Name, err)
		}
	}
	return &Compiled{
		Name:      g.Name,
		Source:    g,
		Triggers:  g.Triggers,
		Program:   p,
		Actions:   g.Actions,
		Footprint: footprintOf(g.Triggers, p),
		Proof:     proof,
	}, nil
}

func trace(o Options, stage string, f *irFunc) {
	if o.Trace != nil {
		fmt.Fprintf(o.Trace, "; after %s\n%s\n", stage, f)
	}
}
