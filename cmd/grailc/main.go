// Command grailc is the guardrail compiler: it parses, checks, compiles,
// and verifies guardrail specification files, printing the compiled
// monitor programs.
//
// Usage:
//
//	grailc [-O0|-O1] [-S] [-json] [-check-only] [-vet] [-interfere] [-witness] [-check] [-o out.img] file.grail...
//	grailc -e 'guardrail g { ... }'
//
// With no flags it reports each guardrail's name, trigger count, and
// program size (plus the pre-optimization size at -O1). -S dumps the IR
// after lowering and after each optimization pass, then the annotated
// disassembly; -json the program as JSON; -o writes binary monitor
// images (one file per guardrail, named <out>.<guardrail>.img when
// multiple); -check-only stops after semantic checking; -vet lints the
// checked specs (package internal/spec/vet) and fails on any
// warning-severity diagnostic; -interfere treats each file as one
// deployment and runs the whole-deployment interference analysis
// (package internal/spec/interfere, GI001… diagnostics — cross-file
// deployments use cmd/grailcheck), failing on warnings; -witness
// augments -vet, -interfere, and -check findings with bounded
// counterexample synthesis (CONFIRMED with a replayable concrete
// input, or PLAUSIBLE when none exists within bounds), and
// -witness-budget caps the assignments tried per finding; -check runs
// the bounded temporal model checker over the file's "assert" property
// blocks, treating the file as one deployment (GM001… diagnostics,
// cross-file deployments use cmd/grailcheck -check), failing on
// refuted or inconclusive properties; -aggregates names the
// deployment's registered cross-shard aggregates so -vet can flag
// LOADs of unregistered *_global keys (GV011). -O1 (constant
// folding, algebraic simplification, CSE, copy propagation, immediate
// selection, DCE, and a bytecode peephole) is the default; -O0 compiles
// by straight lowering and codegen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/spec/vet"
	"guardrails/internal/vm"
)

func main() {
	asm := flag.Bool("S", false, "dump per-pass IR and program disassembly")
	jsonOut := flag.Bool("json", false, "emit compiled programs as JSON")
	checkOnly := flag.Bool("check-only", false, "parse and check only; do not compile")
	vetFlag := flag.Bool("vet", false, "lint specifications (GV001… diagnostics); warnings fail the build")
	interfereFlag := flag.Bool("interfere", false, "analyze each file as one deployment (GI001… diagnostics); warnings fail the build")
	witnessFlag := flag.Bool("witness", false, "with -vet/-interfere/-check: synthesize replayable counterexamples, annotating findings CONFIRMED or PLAUSIBLE")
	witnessBudget := flag.Int("witness-budget", 0, "max concrete assignments tried per finding during witness synthesis (0 = default)")
	checkFlag := flag.Bool("check", false, "model-check the file's assert property blocks (GM001… diagnostics); refuted or inconclusive properties fail the build")
	aggregatesFlag := flag.String("aggregates", "", "with -vet: comma-separated registered aggregate names; LOADs of unregistered *_global keys flag GV011")
	expr := flag.String("e", "", "compile specification text from the command line")
	imgOut := flag.String("o", "", "write binary monitor image(s) to this path")
	o0 := flag.Bool("O0", false, "disable optimization (straight lowering and codegen)")
	o1 := flag.Bool("O1", false, "full optimization (the default)")
	flag.Parse()

	if *o0 && *o1 {
		fail("grailc: -O0 and -O1 are mutually exclusive")
	}
	level := 1
	if *o0 {
		level = 0
	}

	// Inputs are processed in the order given: -e text, then the files.
	type source struct{ name, text string }
	var sources []source
	if *expr != "" {
		sources = append(sources, source{"<command line>", *expr})
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		sources = append(sources, source{path, string(data)})
	}
	if len(sources) == 0 {
		fail("usage: grailc [-O0|-O1] [-S] [-json] [-check-only] file.grail... | grailc -e 'spec'")
	}

	exit := 0
	for _, src := range sources {
		if err := processOne(os.Stdout, src.name, src.text, options{
			asm: *asm, jsonOut: *jsonOut, checkOnly: *checkOnly, imageOut: *imgOut,
			level: level, vet: *vetFlag, interfere: *interfereFlag,
			witness: *witnessFlag, witnessBudget: *witnessBudget,
			check: *checkFlag, aggregates: *aggregatesFlag,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", src.name, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

type options struct {
	asm       bool
	jsonOut   bool
	checkOnly bool
	imageOut  string
	level     int
	vet       bool
	interfere bool
	// witness requests counterexample synthesis for -vet/-interfere/
	// -check findings with replayable claims.
	witness bool
	// witnessBudget caps the assignments tried per finding (0 =
	// each analysis' default).
	witnessBudget int
	// check runs the bounded temporal model checker over the file's
	// assert property blocks.
	check bool
	// aggregates is the -aggregates list ("" = unknown; GV011 off).
	aggregates string
}

func processOne(w io.Writer, name, src string, opt options) error {
	f, err := spec.Parse(src)
	if err != nil {
		return err
	}
	if err := spec.Check(f); err != nil {
		return err
	}
	if opt.vet {
		var cfg *vet.Config
		if opt.aggregates != "" {
			cfg = &vet.Config{Aggregates: splitList(opt.aggregates)}
		}
		ds := vet.FileConfig(f, cfg)
		if opt.witness {
			ds = vet.Witnesses(f, ds, opt.witnessBudget)
		}
		warns := 0
		for _, d := range ds {
			fmt.Fprintf(w, "%s:%s\n", name, d)
			if d.Severity == vet.Warn {
				warns++
			}
		}
		fmt.Fprintf(w, "%s: vet: %s\n", name, vet.Summary(ds))
		if warns > 0 {
			return fmt.Errorf("vet: %d warning(s)", warns)
		}
		if opt.checkOnly && !opt.interfere && !opt.check {
			return nil
		}
	}
	// Interference analysis and model checking need the compiled
	// programs' certificates, so -interfere/-check compile even under
	// -check-only.
	if opt.checkOnly && !opt.interfere && !opt.check {
		fmt.Fprintf(w, "%s: %d guardrail(s) OK\n", name, len(f.Guardrails))
		return nil
	}
	copts := compile.Options{Level: opt.level}
	if opt.asm {
		// -S shows the compiler's work: the IR after lowering and after
		// each pass, then the final annotated bytecode below.
		copts.Trace = w
	}
	compiled, err := compile.FileWith(f, copts)
	if err != nil {
		return err
	}
	if opt.interfere {
		report := interfere.Analyze(&interfere.Deployment{
			Monitors: compiled, Features: f.Features, Witness: opt.witness,
			WitnessBudget: opt.witnessBudget})
		for _, d := range report.Diagnostics {
			fmt.Fprintf(w, "%s:%s\n", name, d)
		}
		fmt.Fprintf(w, "%s: interfere: %s\n", name, report.Summary())
		if warns := report.Warnings(); warns > 0 {
			return fmt.Errorf("interfere: %d warning(s)", warns)
		}
	}
	if opt.check {
		rep := modelcheck.Check(&interfere.Deployment{
			Monitors: compiled, Features: f.Features,
		}, modelcheck.Config{
			Properties:    f.Properties,
			Witness:       opt.witness,
			WitnessBudget: opt.witnessBudget,
		})
		for _, d := range rep.Diagnostics {
			fmt.Fprintf(w, "%s:%s\n", name, d)
			for _, line := range d.Trace {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
		for _, p := range rep.Properties {
			line := fmt.Sprintf("%s: property %s: %s", name, p.Property, p.Status)
			if p.Reason != "" {
				line += " (" + p.Reason + ")"
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "%s: %s\n", name, rep.Summary())
		if !rep.Clean() {
			return fmt.Errorf("modelcheck: %d warning(s), %d propert%s not proved",
				rep.Warnings(), notProved(rep), plural(notProved(rep), "y", "ies"))
		}
	}
	if (opt.interfere || opt.check) && opt.checkOnly {
		return nil
	}
	for _, c := range compiled {
		if opt.imageOut != "" {
			path := opt.imageOut
			if len(compiled) > 1 {
				path = fmt.Sprintf("%s.%s.img", opt.imageOut, c.Name)
			}
			// Attach the verification certificate so the image carries its
			// proof: loaders restore the certified facts with a single
			// CheckCertificate pass instead of a full re-analysis.
			if err := vm.Certify(c.Program, vm.NumBuiltinHelpers); err != nil {
				return fmt.Errorf("certify %s: %w", c.Name, err)
			}
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := c.Program.Encode(out); err != nil {
				out.Close()
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: wrote %s (certified: max %d steps)\n", c.Name, path, c.Program.Meta.MaxSteps)
			continue
		}
		switch {
		case opt.jsonOut:
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(c.Program); err != nil {
				return err
			}
		case opt.asm:
			fmt.Fprint(w, c.Program.Annotated())
			fmt.Fprintln(w)
		default:
			line := fmt.Sprintf("%s: guardrail %q: %d trigger(s), %d rule(s), %d action(s), %d insns, %d symbols",
				name, c.Name, len(c.Triggers), len(c.Source.Rules), len(c.Actions),
				len(c.Program.Code), len(c.Program.Symbols))
			if m := c.Program.Meta; m.OptLevel > 0 && m.PreOptInsns > m.PostOptInsns {
				line += fmt.Sprintf(" (-O%d: %d before optimization)", m.OptLevel, m.PreOptInsns)
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

// notProved counts a model-checking report's non-PROVED properties.
func notProved(rep *modelcheck.Report) int {
	n := 0
	for _, p := range rep.Properties {
		if p.Status != modelcheck.StatusProved {
			n++
		}
	}
	return n
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
