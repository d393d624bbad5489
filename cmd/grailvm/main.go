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
//	grailvm -spec file.grail -set key=value -serve :9090
//
// With -serve the process stays alive after printing the verdicts and
// serves the live ops endpoint — /metrics, /snapshot.json, /flight,
// /why?monitor=..., /healthz — with always-on decision provenance, so
// `grailctl explain <monitor> -addr localhost:9090` can replay why each
// rule held or fired.
//
// Exit status: 0 when every rule holds, 1 when one is violated, 2 on a
// usage, parse, check or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"guardrails"
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
	serveAddr := flag.String("serve", "",
		"after the verdicts, serve the live ops endpoint (/metrics, /snapshot.json, /flight, /why, /healthz) on this address and block")
	var sets setFlags
	flag.Var(&sets, "set", "feature store assignment key=value (repeatable)")
	flag.Parse()

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
		fail("usage: grailvm (-spec file.grail | -e 'spec') [-set key=value]... [-serve addr]")
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

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
