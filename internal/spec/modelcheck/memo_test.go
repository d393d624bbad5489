package modelcheck

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/vm"
)

// The checker has one analysis path, the deployment's memo
// (interfere.Deployment.Analysis). These tests are its differential: the
// un-memoized reference is vm.AnalyzeWith called by the test itself.

// ladderSrc is the escalation ladder plus n background guardrails, each
// reading one key nothing writes — the shape of a large rule set, where
// almost every monitor's analysis is the same in every state.
func ladderSrc(n int) string {
	var b strings.Builder
	b.WriteString(escalationSrc)
	for i := 0; i < n; i++ {
		trigger := "TIMER(0, 1000)"
		if i%2 == 1 {
			trigger = fmt.Sprintf("FUNCTION(hook_%d)", i%6)
		}
		fmt.Fprintf(&b, `
guardrail watch%d {
    trigger: { %s },
    rule: { LOAD(bg_%d) <= %d },
    action: { REPORT(LOAD(bg_%d)) }
}`, i, trigger, i, 10+i, i)
	}
	return b.String()
}

// Safety only: a background hook firing does not advance the ladder.
var ladderProps = []string{"always LOAD(quarantined) <= 1", "always LOAD(alert_level) <= 1"}

// testdataDeployments loads every deployment checked in under
// cmd/grailcheck/testdata: each spec file alone, and each manifest's
// file set with its properties and shadow list.
func testdataDeployments(t *testing.T) map[string]func(*testing.T) (*interfere.Deployment, Config) {
	t.Helper()
	dir := filepath.Join("..", "..", "..", "cmd", "grailcheck", "testdata")
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	out := map[string]func(*testing.T) (*interfere.Deployment, Config){}
	specs, _ := filepath.Glob(filepath.Join(dir, "*.grail"))
	manifests, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(specs) == 0 || len(manifests) == 0 {
		t.Fatal("no testdata deployments found")
	}
	load := func(names []string, properties, shadow []string) func(*testing.T) (*interfere.Deployment, Config) {
		return func(t *testing.T) (*interfere.Deployment, Config) {
			dep := &interfere.Deployment{}
			cfg := Config{Properties: props(t, properties...), Shadow: shadow}
			for _, name := range names {
				f, err := spec.ParseChecked(read(name))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cs, err := compile.File(f)
				if err != nil {
					t.Skipf("%s is lint-only testdata: %v", name, err)
				}
				dep.Monitors = append(dep.Monitors, cs...)
				dep.Features = append(dep.Features, f.Features...)
				cfg.Properties = append(cfg.Properties, f.Properties...)
			}
			return dep, cfg
		}
	}
	for _, path := range specs {
		out[filepath.Base(path)] = load([]string{filepath.Base(path)}, nil, nil)
	}
	for _, path := range manifests {
		var m struct {
			Specs      []string `json:"specs"`
			Properties []string `json:"properties"`
			Shadow     []string `json:"shadow"`
		}
		if err := json.Unmarshal([]byte(read(filepath.Base(path))), &m); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = load(m.Specs, m.Properties, m.Shadow)
	}
	return out
}

// checkMemoAgainstFresh fails t on the first disagreement freshDiff
// finds.
func checkMemoAgainstFresh(t *testing.T, m *model) {
	t.Helper()
	if err := freshDiff(m); err != nil {
		t.Fatal(err)
	}
}

// freshDiff recomputes an explored model without its caches. For every
// explored node and every monitor of every group, the memo and a fresh
// vm.AnalyzeWith are asked the same question and must give the same
// answer, and the writes recorded on the edge must equal the ones
// effectOf computes on the node's values, monitor by monitor in group
// order, each seeing its predecessors' writes: every input exploration
// put to the memo is put to it again here, the property predicates'
// included (evalAll runs first, through the memo, as checkProperty
// would), and a cached effect must be the one its monitor has in every
// state. Every node's signature must be the ids (m.seen) of its values
// over all written keys, not just the ones apply re-stamped.
func freshDiff(m *model) error {
	var preds []*vm.Program
	for i, p := range m.cfg.Properties {
		if m.sys.propOf[i] != m {
			continue // checked on another component's model
		}
		if prog, err := compilePred(p.Pred); err == nil {
			m.evalAll(prog)
			preds = append(preds, prog)
		}
	}
	render := func(a *vm.Analysis, err error) string { return fmt.Sprintf("%+v / %v", a, err) }
	ask := func(where string, p *vm.Program, vals []vm.Interval) error {
		got := render(m.dep.Analysis(p, m.envFor(p, vals)))
		want := render(vm.AnalyzeWith(p, vm.NumBuiltinHelpers, m.envFor(p, vals)))
		if got != want {
			return fmt.Errorf("%s, program %s: memo disagrees with a fresh analysis\nmemo:  %s\nfresh: %s", where, p.Name, got, want)
		}
		return nil
	}
	for ni, n := range m.nodes {
		for _, e := range m.adj[ni] {
			g := m.groups[e.group]
			where := fmt.Sprintf("node %d, %s", ni, g.label)
			cur := append([]vm.Interval(nil), n.vals...)
			var fresh []write
			for _, mi := range g.mons {
				if err := ask(where, m.mons[mi].Program, cur); err != nil {
					return err
				}
				first := len(fresh)
				fresh = m.effectOf(fresh, mi, cur)
				for _, w := range fresh[first:] {
					if w.must {
						cur[w.key] = w.val
					} else {
						cur[w.key] = cur[w.key].Join(w.val)
					}
				}
			}
			if got, want := fmt.Sprintf("%+v", e.writes), fmt.Sprintf("%+v", fresh); got != want {
				return fmt.Errorf("%s: recorded writes differ from an uncached recomputation\nedge:  %s\nfresh: %s", where, got, want)
			}
		}
		for _, prog := range preds {
			if err := ask(fmt.Sprintf("node %d, property", ni), prog, n.vals); err != nil {
				return err
			}
		}
		var sig []byte
		for ki, written := range m.written {
			if !written {
				continue
			}
			id, ok := m.seen[ki][n.vals[ki]]
			if !ok {
				return fmt.Errorf("node %d: %s=%s has no value id", ni, m.keys[ki], n.vals[ki])
			}
			sig = binary.LittleEndian.AppendUint32(sig, uint32(id))
		}
		if string(sig) != n.sig {
			return fmt.Errorf("node %d: signature %x, its values' ids are %x", ni, n.sig, sig)
		}
	}
	return nil
}

// TestFreshDiffCatchesMisclassifiedEffect is the mutation check on
// freshDiff's effect comparison: classifying escalate-two, which loads
// the written alert_level, as fixed must fail it. escalate-two is
// declared first here, so it fires before escalate-one raises the alert
// in the same group and sees alert_level both at 0 and at 1 (in
// escalationSrc's order it only ever sees 1, and its effect never varies).
func TestFreshDiffCatchesMisclassifiedEffect(t *testing.T) {
	src := `
feature bad_tenant_err range(0.8, 1)

guardrail escalate-two {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(alert_level) < 1 || LOAD(bad_tenant_err) < 0.5 },
    action: { SAVE(quarantined, 1) }
}

guardrail escalate-one {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(bad_tenant_err) < 0.5 },
    action: { SAVE(alert_level, 1) }
}`
	explored := func(mutate bool) *model {
		m := buildSystem(deployment(t, src), Config{}).models[0] // both on one timer: one component
		if m.mons[0].Name != "escalate-two" || m.effects[0].fixed {
			t.Fatalf("monitor 0 is %s, fixed=%v", m.mons[0].Name, m.effects[0].fixed)
		}
		m.effects[0].fixed = mutate
		m.explore()
		return m
	}
	if err := freshDiff(explored(false)); err != nil {
		t.Fatal(err)
	}
	err := freshDiff(explored(true))
	if err == nil {
		t.Fatal("escalate-two's cached effect passed the differential")
	}
	t.Log(err)
}

func TestMemoMatchesFreshAnalysis(t *testing.T) {
	cases := testdataDeployments(t)
	cases["ladder+40"] = func(t *testing.T) (*interfere.Deployment, Config) {
		return deployment(t, ladderSrc(40)), Config{Properties: props(t, ladderProps...)}
	}
	// A widened counter: n takes [0,0], [1,1], … then [0,+Inf], so memo
	// keys differ in the upper bound alone.
	cases["counter"] = func(t *testing.T) (*interfere.Deployment, Config) {
		return deployment(t, `
guardrail counter {
    trigger: { TIMER(0, 1000) },
    rule: { LOAD(n) < 0 },
    action: { SAVE(n, LOAD(n) + 1) }
}`), Config{Properties: props(t, "always LOAD(n) >= 0")}
	}
	for name, load := range cases {
		t.Run(name, func(t *testing.T) {
			dep, cfg := load(t)
			// As deploy.Check does: interference first, on the same value.
			interfere.Analyze(dep)
			s := buildSystem(dep, cfg)
			for _, m := range s.models {
				m.explore()
			}
			for _, m := range s.models {
				checkMemoAgainstFresh(t, m)
			}
		})
	}
}

// TestBackgroundMonitorsAnalyzedOnce is the test that fails without the
// memo: a monitor that loads no written key is analyzed once, not once
// per state, so a check's abstract interpretations are bounded by
// monitors + (state-dependent programs) × states, and each additional
// background monitor costs exactly one.
func TestBackgroundMonitorsAnalyzedOnce(t *testing.T) {
	performed := func(n int) (analyses, states int) {
		dep := deployment(t, ladderSrc(n))
		rep := Check(dep, Config{Properties: props(t, ladderProps...)})
		if rep.Truncated || !rep.Clean() {
			t.Fatalf("ladder+%d: %s %v", n, rep.Summary(), rep.Diagnostics)
		}
		return dep.Analyses(), rep.States
	}
	const n = 50
	got, states := performed(n)
	// escalate-two loads the written alert_level; both properties read
	// the written quarantined.
	const stateDependent = 1 + 2
	if bound := (n + 2) + stateDependent*states; got > bound {
		t.Errorf("ladder+%d: %d analyses performed over %d states, want ≤ %d", n, got, states, bound)
	}
	if twice, _ := performed(2 * n); twice-got != n {
		t.Errorf("doubling the background monitors %d → %d added %d analyses, want exactly %d", n, 2*n, twice-got, n)
	}
}

// BenchmarkCheck is the profiling handle on the checker alone:
//
//	go test -run '^$' -bench Check -cpuprofile cpu.prof ./internal/spec/modelcheck
//
// Every iteration checks a fresh deployment value (a cold memo), which
// is what a load-time gate pays. ladder+200's background monitors only
// REPORT, so it is two states and 202 first analyses. manifest is the
// check_manifest workload's deployment (benchmark/gen, seed 1, every
// ladder): background monitors SAVE shared keys on shared hooks and
// timers beside an oscillator pair, so per-edge writes and the
// oscillation search are in the profile too. manifest×2 and
// manifest×16 are 2 and 16 disjoint copies of it (manifestCopies: 400
// and 3 200 guardrails). ns/guardrail is the scaling figure.
func BenchmarkCheck(b *testing.B) {
	manifest, manifestCfg := manifestDeployment(b, 1, gen.Ladders)
	x2, x2Cfg := manifestCopies(b, 2)
	x16, x16Cfg := manifestCopies(b, 16)
	for _, bc := range []struct {
		name string
		dep  *interfere.Deployment
		cfg  Config
	}{
		{"ladder+200", deployment(b, ladderSrc(200)), Config{Properties: props(b, ladderProps...)}},
		{"manifest", manifest, manifestCfg},
		{"manifest×2", x2, x2Cfg},
		{"manifest×16", x16, x16Cfg},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := Check(&interfere.Deployment{Monitors: bc.dep.Monitors, Features: bc.dep.Features}, bc.cfg)
				for _, p := range rep.Properties {
					if p.Status != StatusProved {
						b.Fatal(rep.Summary())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.dep.Monitors)), "ns/guardrail")
		})
	}
}

// BenchmarkInterfere times interfere.Analyze, the gate stage before the
// checker, on the check_manifest deployment and on 16 disjoint copies of
// it (200 and 3 200 guardrails), each iteration on a fresh deployment
// value. Its pair checks visit only monitors that share a hook site or
// both have timers, so ns/guardrail grows with the timer group alone.
func BenchmarkInterfere(b *testing.B) {
	manifest, _ := manifestDeployment(b, 1, gen.Ladders)
	x16, _ := manifestCopies(b, 16)
	for _, bc := range []struct {
		name string
		dep  *interfere.Deployment
	}{{"manifest", manifest}, {"manifest×16", x16}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := interfere.Analyze(&interfere.Deployment{Monitors: bc.dep.Monitors, Features: bc.dep.Features})
				if rep.Warnings() != 4*len(bc.dep.Monitors)/gen.ManifestMonitors {
					b.Fatal(rep.Summary())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.dep.Monitors)), "ns/guardrail")
		})
	}
}

// FuzzModelcheck: on any spec text the front end accepts, Check under
// small bounds never panics, is deterministic to the byte, withholds
// every proof when exploration was truncated, never proves an "always"
// property that a short concrete run on the real interpreter falsifies,
// the memo agrees with a fresh analysis on every edge, and checking
// component by component gives the verdicts the whole model gives.
func FuzzModelcheck(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "..", "cmd", "grailcheck", "testdata", "*.grail"))
	if len(paths) == 0 {
		f.Fatal("no seed specs found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(ladderSrc(3) + "\nassert always LOAD(quarantined) <= 1\n")
	// Two components, each with a state change: properties on the
	// second alone, then one joining both.
	const twoComponents = `
guardrail raise-a {
    trigger: { FUNCTION(ha) },
    rule: { LOAD(a) >= 1 },
    action: { SAVE(a, 1) }
}

guardrail raise-b {
    trigger: { FUNCTION(hb) },
    rule: { LOAD(b) >= 1 },
    action: { SAVE(b, 1) }
}
`
	f.Add(twoComponents + "assert always LOAD(b) <= 1\nassert always LOAD(b) <= 0\n")
	f.Add(twoComponents + "assert always LOAD(a) + LOAD(b) <= 1\n")
	// Two ladders on timers that never tick together, which the tick
	// classes split into two components: properties on each, then one
	// joining both.
	offsetLadders := strings.NewReplacer("escalate-", "late-", "alert_level", "late_alert", "quarantined", "late_quarantined",
		"bad_tenant_err", "late_err", "TIMER(0, 1000)", "TIMER(500, 1000)").Replace(escalationSrc)
	f.Add(escalationSrc + offsetLadders + "assert always LOAD(quarantined) <= 1\nassert always LOAD(late_quarantined) <= 1\n")
	f.Add(escalationSrc + offsetLadders + "assert always LOAD(quarantined) + LOAD(late_quarantined) <= 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := spec.ParseChecked(src)
		if err != nil {
			return
		}
		cs, err := compile.File(file)
		if err != nil {
			return
		}
		cfg := Config{Properties: file.Properties, MaxStates: 64, MaxDepth: 16}
		fresh := func() *interfere.Deployment {
			return &interfere.Deployment{Monitors: cs, Features: file.Features}
		}
		rep := Check(fresh(), cfg)
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(Check(fresh(), cfg)); string(again) != string(first) {
			t.Fatalf("two runs differ:\n%s\n%s", first, again)
		}

		s := buildSystem(fresh(), cfg)
		for _, m := range s.models {
			m.explore()
		}
		for _, m := range s.models {
			checkMemoAgainstFresh(t, m)
		}

		for i, res := range rep.Properties {
			if res.Status != StatusProved {
				continue
			}
			if rep.Truncated {
				t.Fatalf("%s PROVED on a truncated exploration (%s)", res.Property, rep.TruncationReason)
			}
			if p := cfg.Properties[i]; p.Kind == spec.PropAlways {
				refuteConcretely(t, s.propOf[i], p)
			}
		}

		// Component-wise ≡ whole-model. An "eventually" property joins
		// every component into one model, the whole interleaved product;
		// this one reads a fresh key declared in range, so it holds in the
		// initial state and adds no finding of its own. Whenever the whole
		// model is not truncated, every other property's status and every
		// finding's code and guardrails must be the same.
		wholeDep := fresh()
		wholeDep.Features = append(slices.Clip(file.Features), &spec.FeatureDecl{Key: "whole__", Lo: 0, Hi: 1})
		wholeCfg := cfg
		wholeCfg.Properties = append(slices.Clip(cfg.Properties), props(t, "eventually LOAD(whole__) <= 1 within 1")...)
		whole := Check(wholeDep, wholeCfg)
		if len(buildSystem(wholeDep, wholeCfg).models) != 1 {
			t.Fatal("an eventually property left the deployment in several models")
		}
		if whole.Truncated {
			return
		}
		if last := whole.Properties[len(cfg.Properties)]; last.Status != StatusProved {
			t.Fatalf("the joining property is %s (%s)", last.Status, last.Reason)
		}
		for i, res := range rep.Properties {
			if w := whole.Properties[i]; w.Status != res.Status {
				t.Errorf("%s: %s component-wise, %s on the whole model (%s)", res.Property, res.Status, w.Status, w.Reason)
			}
		}
		if got, want := findingKeys(rep), findingKeys(whole); !slices.Equal(got, want) {
			t.Errorf("findings differ\ncomponent-wise: %q\nwhole model:    %q", got, want)
		}
	})
}

// findingKeys renders a report's findings as code, guardrail and
// partners, sorted: what a verdict is made of, without the messages
// (which quote state counts).
func findingKeys(rep *Report) []string {
	keys := make([]string, len(rep.Diagnostics))
	for i, d := range rep.Diagnostics {
		keys[i] = fmt.Sprintf("%s %s %v", d.Code, d.Guardrail, d.Others)
	}
	slices.Sort(keys)
	return keys
}

// refuteConcretely replays every group sequence of up to three fires on
// the real interpreter from the zero store (declared features at their
// lower bound, which the zero store must respect to be an execution the
// proof covers) and fails if the proved predicate is concretely false
// anywhere along one.
func refuteConcretely(t *testing.T, m *model, p *spec.PropertyDecl) {
	prog, err := compilePred(p.Pred)
	if err != nil {
		return
	}
	groups := len(m.groups)
	if groups > 4 {
		groups = 4 // 4 + 16 + 64 sequences at most
	}
	var walk func(seq []int)
	walk = func(seq []int) {
		env := map[string]float64{}
		for i, k := range m.keys {
			if d := m.declared[i]; d != nil {
				env[k] = d.Lo
			} else {
				env[k] = 0
			}
		}
		var steps []string
		falsified := m.predFalse(prog, env)
		_, ok := m.schedule(seq).Replay(env, m.narrate(seq, &steps, func(_ []*vm.Replay, store map[string]float64) bool {
			falsified = falsified || m.predFalse(prog, store)
			return true
		}))
		if ok && falsified {
			t.Fatalf("%s PROVED, but is false on the real interpreter along %v:\n%s", p, seq, strings.Join(steps, "\n"))
		}
		if len(seq) < 3 {
			for gi := 0; gi < groups; gi++ {
				walk(append(append([]int(nil), seq...), gi))
			}
		}
	}
	walk(nil)
}
