// Command grailvm compiles a guardrail specification and evaluates its
// monitors once against feature-store values supplied on the command
// line, printing each rule's verdict and the actions a violation would
// dispatch. It is the quickest way to sanity-check a guardrail before
// deploying it.
//
// Usage:
//
//	grailvm -spec file.grail [-set key=value]...
//	grailvm -e 'guardrail g { ... }' -set false_submit_rate=0.2
//	grailvm -image monitor.img -set key=value    (grailc -o output)
//	grailvm -asm monitor.s -set key=value        (hand-written assembly)
//	grailvm -spec file.grail -set key=value -serve :9090
//
// With -serve the process stays alive after printing the verdicts and
// serves the live ops endpoint — /metrics, /snapshot.json, /flight,
// /why?monitor=..., /healthz — with always-on decision provenance, so
// `grailctl explain <monitor> -addr localhost:9090` can replay why each
// rule held or fired.
//
// Image and assembly modes evaluate the raw monitor program against the
// supplied feature-store state: rules and SAVE actions execute; REPORT/
// REPLACE/RETRAIN/DEPRIORITIZE dispatches are counted but have no
// bindings outside a full runtime. Both modes re-verify the program
// through the abstract interpreter before running it; -max-steps N
// additionally rejects programs whose certified worst-case step bound
// exceeds N.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"guardrails"
	"guardrails/internal/featurestore"
	"guardrails/internal/vm"
)

type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	specPath := flag.String("spec", "", "guardrail specification file")
	expr := flag.String("e", "", "guardrail specification text")
	imagePath := flag.String("image", "", "binary monitor image (grailc -o)")
	asmPath := flag.String("asm", "", "monitor assembly file")
	maxSteps := flag.Int("max-steps", 0,
		"reject programs whose certified worst-case step count exceeds this (0 = no limit; image/asm modes)")
	serveAddr := flag.String("serve", "",
		"after the verdicts, serve the live ops endpoint (/metrics, /snapshot.json, /flight, /why, /healthz) on this address and block (spec/-e modes)")
	var sets setFlags
	flag.Var(&sets, "set", "feature store assignment key=value (repeatable)")
	flag.Parse()

	if *imagePath != "" || *asmPath != "" {
		runRaw(*imagePath, *asmPath, *maxSteps, sets)
		return
	}

	var src string
	switch {
	case *expr != "":
		src = *expr
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail("%v", err)
		}
		src = string(data)
	default:
		fail("usage: grailvm (-spec file.grail | -e 'spec' | -image m.img | -asm m.s) [-set key=value]...")
	}

	sys := guardrails.NewSystem()
	sink := sys.AttachTelemetry(256)
	// Always-on provenance for a one-shot evaluation: every decision
	// (healthy included) keeps its "why" record for /why and explain.
	sys.AttachProvenance(256, 1)
	for _, kv := range sets {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			fail("bad -set %q (want key=value)", kv)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			fail("bad -set value %q: %v", parts[1], err)
		}
		sys.Store.Save(parts[0], v)
	}

	mons, err := sys.LoadGuardrails(src, guardrails.Options{})
	if err != nil {
		fail("%v", err)
	}
	exit := 0
	for _, m := range mons {
		held := m.Evaluate(0)
		verdict := "HOLDS"
		if !held {
			verdict = "VIOLATED"
			exit = 1
		}
		fmt.Printf("guardrail %-24s %s (%d VM steps)\n", m.Name(), verdict, m.Stats().VMSteps)
	}
	if log := sys.Runtime.Log.Recent(10); len(log) > 0 {
		fmt.Println("\nreported violations:")
		for _, v := range log {
			fmt.Println(" ", v)
		}
	}
	if snap := sys.Store.Snapshot(); len(snap) > 0 {
		fmt.Println("\nfeature store after evaluation:")
		fmt.Print(indent(sys.Store.Dump()))
	}
	t := sink.Snapshot()
	fmt.Printf("\ntelemetry: %d evals, %d violations, %d actions fired, %d VM steps, %d store loads, %d store saves\n",
		t.Counters["evals_total"], t.Counters["violations_total"], t.Counters["actions_fired_total"],
		t.Counters["vm_steps_total"], t.Counters["featurestore_loads_total"], t.Counters["featurestore_saves_total"])
	if *serveAddr != "" {
		srv, err := sys.ServeOps(*serveAddr)
		if err != nil {
			fail("serve: %v", err)
		}
		fmt.Fprintf(os.Stderr, "serving ops endpoint on http://%s (/metrics /snapshot.json /flight /why /healthz); ^C to stop\n", srv.Addr())
		select {} // serve until interrupted
	}
	os.Exit(exit)
}

// rawEnv executes a bare program against a feature store: cells resolve
// by symbol, helpers run math builtins, and action dispatches are
// counted.
type rawEnv struct {
	store   *featurestore.Store
	cells   []featurestore.ID
	actions int
	reports int
}

func (e *rawEnv) LoadCell(i int32) float64     { return e.store.LoadID(e.cells[i]) }
func (e *rawEnv) StoreCell(i int32, v float64) { e.store.SaveID(e.cells[i], v) }
func (e *rawEnv) Helper(h vm.HelperID, args *[5]float64) (float64, error) {
	switch h {
	case vm.HelperReport:
		e.reports++
	case vm.HelperAction:
		e.actions++
	}
	v, _ := vm.PureHelper(h, args[0]) // now() and unknown helpers read 0
	return v, nil
}

// runRaw evaluates a monitor image or assembly file once. Decoded
// images carry no trusted proof (Program.Meta is not serialized), but a
// certified image's proof is restored by vm.CheckCertificate in one
// linear pass; images without a certificate — and assembly — are
// re-verified through the full abstract interpreter before any
// instruction runs. maxSteps > 0 additionally rejects programs whose
// certified worst-case step bound exceeds the budget.
func runRaw(imagePath, asmPath string, maxSteps int, sets setFlags) {
	var p *vm.Program
	switch {
	case imagePath != "":
		f, err := os.Open(imagePath)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if p, err = vm.Decode(f); err != nil {
			fail("%v", err)
		}
	default:
		data, err := os.ReadFile(asmPath)
		if err != nil {
			fail("%v", err)
		}
		if p, err = vm.Assemble(string(data)); err != nil {
			fail("%v", err)
		}
	}
	proof := "re-verified"
	if p.Cert != nil && vm.CheckCertificate(p, vm.NumBuiltinHelpers) == nil {
		proof = "certificate checked"
		if maxSteps > 0 && p.Meta.MaxSteps > maxSteps {
			fail("program rejected: certified worst-case step count %d exceeds the budget of %d steps",
				p.Meta.MaxSteps, maxSteps)
		}
	} else if maxSteps > 0 {
		if err := vm.VerifySteps(p, vm.NumBuiltinHelpers, maxSteps); err != nil {
			fail("program rejected by verifier: %v", err)
		}
	} else if err := vm.Verify(p, vm.NumBuiltinHelpers); err != nil {
		fail("program rejected by verifier: %v", err)
	}
	store := featurestore.New()
	for _, kv := range sets {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			fail("bad -set %q (want key=value)", kv)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			fail("bad -set value %q: %v", parts[1], err)
		}
		store.Save(parts[0], v)
	}
	env := &rawEnv{store: store, cells: make([]featurestore.ID, len(p.Symbols))}
	for i, sym := range p.Symbols {
		env.cells[i] = store.Intern(sym)
	}
	var m vm.Machine
	out, err := m.Run(p, env, 0)
	if err != nil {
		fail("%v", err)
	}
	verdict := "HOLDS"
	exit := 0
	if out == 0 {
		verdict = "VIOLATED"
		exit = 1
	}
	fmt.Printf("program %-24s %s (%d VM steps, %d report(s), %d action dispatch(es); proof: %s)\n",
		p.Name, verdict, m.Steps, env.reports, env.actions, proof)
	fmt.Println("\nfeature store after evaluation:")
	fmt.Print(indent(store.Dump()))
	os.Exit(exit)
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
