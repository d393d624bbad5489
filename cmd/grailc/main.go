// Command grailc is the guardrail compiler: it parses, checks, compiles,
// and verifies guardrail specification files, printing the compiled
// monitor programs. It only compiles; every diagnostic (lint,
// interference, temporal properties, witnesses) comes from
// cmd/grailcheck.
//
// Usage:
//
//	grailc [-O0|-O1] [-S] [-json] [-check-only] [-o out.img] file.grail...
//	grailc -e 'guardrail g { ... }'
//
// With no flags it reports each guardrail's name, trigger count, and
// program size (plus the pre-optimization size at -O1). -S dumps the IR
// after lowering and after each optimization pass, then the annotated
// disassembly; -json the program as JSON; -o writes binary monitor
// images (one file per guardrail, named <out>.<guardrail>.img when
// multiple); -check-only stops after semantic checking. -O1 (constant
// folding, CSE, copy propagation, immediate selection and DCE) is the
// default; -O0 compiles by straight lowering and codegen. A guardrail
// whose -O1 program does not fit the register file is built as its -O0
// program, and reported as such.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

func main() {
	asm := flag.Bool("S", false, "dump per-pass IR and program disassembly")
	jsonOut := flag.Bool("json", false, "emit compiled programs as JSON")
	checkOnly := flag.Bool("check-only", false, "parse and check only; do not compile")
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
		fail("usage: grailc [-O0|-O1] [-S] [-json] [-check-only] [-o out.img] file.grail... | grailc -e 'spec'")
	}

	exit := 0
	for _, src := range sources {
		if err := processOne(os.Stdout, src.name, src.text, options{
			asm: *asm, jsonOut: *jsonOut, checkOnly: *checkOnly, imageOut: *imgOut, level: level,
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
}

func processOne(w io.Writer, name, src string, opt options) error {
	if opt.checkOnly {
		f, err := spec.ParseChecked(src)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d guardrail(s) OK\n", name, len(f.Guardrails))
		return nil
	}
	copts := compile.Options{Level: opt.level}
	if opt.asm {
		// -S shows the compiler's work: the IR after lowering and after
		// each pass, then the final annotated bytecode below.
		copts.Trace = w
	}
	compiled, err := compile.SourceWith(src, copts)
	if err != nil {
		return err
	}
	for _, c := range compiled {
		if opt.imageOut != "" {
			path := opt.imageOut
			if len(compiled) > 1 {
				path = fmt.Sprintf("%s.%s.img", opt.imageOut, c.Name)
			}
			// Attach the verification certificate so the image carries its
			// proof: vm.CheckCertificate restores the certified facts of a
			// decoded image in one pass instead of a full re-analysis.
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

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
