package guardrails

import (
	"path/filepath"
	"slices"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/vm"
)

// TestHookWitnessesReplayOnRuntime: every hook-site co-fire witness
// (CONFIRMED GI002 and GI003) that grailcheck -witness reports on the
// grailcheck fixtures reproduces on the monitor runtime. A witness
// replays one dispatch of the pair in declaration order on one shared
// store, and assumes the runtime options under which a violation acts at
// once: Options{} (violation streak 1, not shadow) and no act gate. For
// each finding the pair is loaded with Runtime.Load in declaration
// order, the store seeded with the witness inputs and the shared site
// fired once; each monitor must count one violation.
func TestHookWitnessesReplayOnRuntime(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("cmd", "grailcheck", "testdata", "*.grail"))
	if err != nil {
		t.Fatal(err)
	}
	var replayed []string
	for _, path := range paths {
		srcs, err := deploy.ReadSources([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := deploy.Load(srcs...)
		if err != nil {
			continue // a lint fixture that does not compile
		}
		verdict := dep.Check(deploy.Checks{Witness: true})
		for _, d := range verdict.Report.Diagnostics {
			if d.Status != vm.WitnessConfirmed || d.Site == "TIMER" ||
				d.Code != interfere.CodeReplaceConflict && d.Code != interfere.CodeDuplicateAction {
				continue
			}
			var pair []*compile.Compiled // in declaration order
			for _, c := range dep.Monitors {
				if c.Name == d.Guardrail || slices.Contains(d.Others, c.Name) {
					pair = append(pair, c)
				}
			}
			if len(pair) != 2 {
				t.Fatalf("%s: %s names %d deployed monitors", path, d, len(pair))
			}
			k, store := kernel.New(), featurestore.New()
			rt := monitor.New(k, store)
			var ms []*monitor.Monitor
			for _, c := range pair {
				m, err := rt.Load(c, monitor.Options{})
				if err != nil {
					t.Fatalf("%s: load %s: %v", path, c.Name, err)
				}
				ms = append(ms, m)
			}
			for key, v := range d.Witness.Inputs {
				store.Save(key, v)
			}
			k.Fire(d.Site)
			for _, m := range ms {
				if got := m.Stats().Violations; got != 1 {
					t.Errorf("%s: %s counted %d violations on one %s fire, want 1\n%s",
						path, m.Name(), got, d.Site, d)
				}
			}
			replayed = append(replayed, d.Guardrail)
		}
	}
	for _, want := range []string{"deep-a", "ping-first"} {
		if !slices.Contains(replayed, want) {
			t.Errorf("no CONFIRMED hook witness for %s was replayed (replayed %v)", want, replayed)
		}
	}
}
