package gen

import (
	"fmt"
	"sort"
	"strings"
)

// Manifest shape. The counts are fixed so that every seed produces a
// deployment with the same structure — and so the same abstract state
// space for the model checker — while the seed draws everything the
// structure leaves open: thresholds, feature ranges, which signal each
// rule reads, action kinds, and where the planted guardrails sit among
// the background ones.
const (
	ManifestFiles      = 10 // one spec file per tool family
	GuardrailsPerFile  = 20
	ManifestMonitors   = ManifestFiles * GuardrailsPerFile
	SitesPerFile       = 2 // FUNCTION(tool_k) sites: 20 in all
	SignalsPerFile     = 5 // ranged input features: 50 in all
	TimersPerFile      = 5 // a quarter of the guardrails tick on TIMERs
	Ladders            = 4 // planted escalation ladders, files 0..3
	ConflictPairs      = 3 // planted GI001 pairs, files 4..6
	oscillatorFile     = 8 // the planted GM003 pair
	timerPeriodClasses = 4
)

// timerPeriods are the four TIMER intervals (simulated ns). They nest,
// so the schedule over one hyperperiod has four coincidence classes.
var timerPeriods = [timerPeriodClasses]float64{1e9, 2e9, 4e9, 8e9}

// Finding is one expected diagnostic: its stable code, the guardrail it
// is anchored to, and the partners it names.
type Finding struct {
	Code      string
	Guardrail string
	Others    []string
}

// Key renders the finding for set comparison.
func (f Finding) Key() string {
	o := append([]string(nil), f.Others...)
	sort.Strings(o)
	return f.Code + " " + f.Guardrail + " [" + strings.Join(o, ",") + "]"
}

// SpecFile is one generated spec file.
type SpecFile struct {
	Name   string
	Source string
}

// Manifest is the check_manifest input: spec files for the checker and
// the ground truth the generator planted in them.
type Manifest struct {
	Files []SpecFile
	// Monitors is the number of guardrails across Files.
	Monitors int
	// Proved lists the declared properties, in source form as the parser
	// renders them; every one must come back PROVED.
	Proved []string
	// PropertyOwner maps each property to the guardrail whose verdict it
	// belongs to (the ladder's first rung).
	PropertyOwner map[string]string
	// Findings is exactly the set of warning diagnostics the planted
	// structures imply; a clean background contributes none.
	Findings []Finding
}

// manifestFile accumulates one spec file.
type manifestFile struct {
	index      int
	sigHi      []float64 // upper bound of each of the file's signals
	features   []string  // "feature k range(lo, hi)" lines
	asserts    []string
	background []*Guardrail
	planted    [][]*Guardrail // each inner slice keeps its order
}

// BuildManifest generates the deployment for a seed with the given
// number of planted ladders (at most Ladders; the benchmark plants all
// of them, its fast self-tests fewer — each ladder triples the model
// checker's state space).
func BuildManifest(seed int64, ladders int) *Manifest {
	m := &Manifest{Monitors: ManifestMonitors, PropertyOwner: map[string]string{}}
	files := make([]*manifestFile, ManifestFiles)
	frng := NewRNG(seed, "manifest/features")
	for fi := range files {
		f := &manifestFile{index: fi, sigHi: make([]float64, SignalsPerFile)}
		for s := range f.sigHi {
			f.sigHi[s] = []float64{1, 10, 100, 1000}[frng.Intn(4)]
			f.features = append(f.features, fmt.Sprintf("feature %s range(0, %s)", sigName(fi, s), Num(f.sigHi[s])))
		}
		for s := 0; s < SitesPerFile; s++ {
			f.features = append(f.features, fmt.Sprintf("feature %s range(0, 1)", denyKey(fi, s)))
		}
		f.features = append(f.features, fmt.Sprintf("feature %s range(0, 1)", quotaKey(fi)))
		files[fi] = f
	}

	// Planted structures first; they decide how many background
	// guardrails of each kind a file still needs.
	for j := 0; j < ladders && j < Ladders; j++ {
		plantLadder(m, files[j], j, siteName(j, 0))
	}
	for i := 0; i < ConflictPairs; i++ {
		plantConflict(m, files[Ladders+i], i, NewRNG(seed, fmt.Sprintf("manifest/conflict%d", i)))
	}
	plantOscillator(m, files[oscillatorFile])

	// Background: exact shares of action kinds and of two-rule
	// guardrails, dealt by a seeded shuffle so no seed is heavier.
	rng := NewRNG(seed, "manifest/background")
	nBackground := 0
	for _, f := range files {
		nBackground += GuardrailsPerFile - plantedCount(f)
	}
	actionKinds := dealt(rng, nBackground, 3)
	twoRules := dealt(rng, nBackground, 2)
	timerClass := dealt(rng, ManifestFiles*TimersPerFile-2, timerPeriodClasses)
	bi, ti := 0, 0
	for fi, f := range files {
		sigHi := f.sigHi
		timers := TimersPerFile
		if fi == oscillatorFile {
			timers -= 2
		}
		need := GuardrailsPerFile - plantedCount(f)
		for n := 0; n < need; n++ {
			g := &Guardrail{Name: fmt.Sprintf("g%03d-%s", bi, []string{"rate", "burst", "quota", "scope"}[rng.Intn(4)])}
			saveKey := ""
			if n < timers {
				g.Timer = [2]float64{0, timerPeriods[timerClass[ti]]}
				ti++
				saveKey = quotaKey(fi)
			} else {
				s := rng.Intn(SitesPerFile)
				g.Site = siteName(fi, s)
				saveKey = denyKey(fi, s)
			}
			a := rng.Intn(SignalsPerFile)
			g.Rules = []Rule{{Left: Load(sigName(fi, a)), Cmp: "<=", Bound: Const(insideRange(rng, sigHi[a]))}}
			if twoRules[bi] == 1 {
				b := rng.Intn(SignalsPerFile)
				k := rng.Grid(0.25, 2, 0.25)
				g.Rules = append(g.Rules, Rule{
					Left: Bin('*', Load(sigName(fi, b)), Const(k)), Cmp: "<=",
					Bound: Const(insideRange(rng, sigHi[b]) * k),
				})
			}
			if actionKinds[bi] != 1 {
				g.Saves = []Save{{Key: saveKey, Value: Const(1)}}
			}
			if actionKinds[bi] != 0 {
				g.HasReport = true
				g.Report = []*Expr{Load(sigName(fi, a))}
			}
			f.background = append(f.background, g)
			bi++
		}
	}

	for fi, f := range files {
		m.Files = append(m.Files, SpecFile{
			Name:   fmt.Sprintf("tools_%02d.grail", fi),
			Source: f.render(fi, NewRNG(seed, fmt.Sprintf("manifest/order%d", fi))),
		})
	}
	sort.Strings(m.Proved)
	sort.Slice(m.Findings, func(i, j int) bool { return m.Findings[i].Key() < m.Findings[j].Key() })
	return m
}

func plantedCount(f *manifestFile) int {
	n := 0
	for _, p := range f.planted {
		n += len(p)
	}
	return n
}

// dealt returns n values in [0, kinds) with equal shares (to within
// one), in seeded order.
func dealt(rng *RNG, n, kinds int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % kinds
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// insideRange draws a threshold strictly inside (0, hi), so the rule can
// both hold and fail under the declared range: no dead guardrail
// (GI006), no out-of-range threshold (GV010).
func insideRange(rng *RNG, hi float64) float64 {
	return rng.Grid(0.25*hi, 0.75*hi, hi/64)
}

func siteName(file, s int) string { return fmt.Sprintf("tool_%d", file*SitesPerFile+s) }
func sigName(file, s int) string  { return fmt.Sprintf("sig_%d", file*SignalsPerFile+s) }
func denyKey(file, s int) string  { return fmt.Sprintf("deny_tool_%d", file*SitesPerFile+s) }
func quotaKey(file int) string    { return fmt.Sprintf("quota_%d", file) }

// plantLadder plants a two-rung escalation ladder on one hook site. The
// error signal is certified bad, so the first rung always raises the
// alert; the second rung quarantines once the alert is up. The second
// rung is declared first, so it acts one firing after the first: the
// model has three states per ladder (calm, alerted, quarantined). Both
// SAVEs are idempotent, so two safety properties hold and must be
// PROVED: the quarantine flag is bounded, and the ladder never
// quarantines before it alerts.
func plantLadder(m *Manifest, f *manifestFile, j int, site string) {
	errKey := fmt.Sprintf("lad%d_err", j)
	alert := fmt.Sprintf("lad%d_alert", j)
	quar := fmt.Sprintf("lad%d_quar", j)
	f.features = append(f.features, fmt.Sprintf("feature %s range(0.8, 1)", errKey))
	rung2 := &Guardrail{
		Name:  fmt.Sprintf("lad%d-quarantine", j),
		Site:  site,
		Rules: []Rule{{Left: Load(alert), Cmp: "<", Bound: Const(1)}},
		Saves: []Save{{Key: quar, Value: Const(1)}},
	}
	rung1 := &Guardrail{
		Name:  fmt.Sprintf("lad%d-alert", j),
		Site:  site,
		Rules: []Rule{{Left: Bin('*', Load(errKey), Const(0.5)), Cmp: "<=", Bound: Const(0.25)}},
		Saves: []Save{{Key: alert, Value: Const(1)}},
	}
	f.planted = append(f.planted, []*Guardrail{rung2, rung1})
	for _, pred := range []string{
		fmt.Sprintf("(LOAD(%s) <= 1)", quar),
		fmt.Sprintf("(LOAD(%s) <= LOAD(%s))", quar, alert),
	} {
		f.asserts = append(f.asserts, "assert always "+pred)
		prop := "assert always " + pred
		m.Proved = append(m.Proved, prop)
		m.PropertyOwner[prop] = rung1.Name
	}
}

// plantConflict plants two guardrails on one hook site that SAVE
// provably different constants to the same key: a contradictory
// co-firing pair (GI001). Because both can fire on every dispatch, the
// key also never settles on the dispatch self-loop, which the model
// checker reports as an oscillation (GM003) for the same pair.
func plantConflict(m *Manifest, f *manifestFile, i int, rng *RNG) {
	gate := fmt.Sprintf("cf%d_gate", i)
	site := siteName(f.index, 1)
	f.features = append(f.features, fmt.Sprintf("feature %s range(0, 1)", gate))
	rule := func() Rule {
		s := rng.Intn(SignalsPerFile)
		return Rule{Left: Load(sigName(f.index, s)), Cmp: "<=", Bound: Const(insideRange(rng, f.sigHi[s]))}
	}
	open := &Guardrail{
		Name:  fmt.Sprintf("cf%d-open", i),
		Site:  site,
		Rules: []Rule{rule()},
		Saves: []Save{{Key: gate, Value: Const(1)}},
	}
	shut := &Guardrail{
		Name:  fmt.Sprintf("cf%d-shut", i),
		Site:  site,
		Rules: []Rule{rule()},
		Saves: []Save{{Key: gate, Value: Const(0)}},
	}
	f.planted = append(f.planted, []*Guardrail{open, shut})
	m.Findings = append(m.Findings,
		Finding{Code: "GI001", Guardrail: open.Name, Others: []string{shut.Name}},
		Finding{Code: "GM003", Guardrail: open.Name, Others: []string{shut.Name}},
	)
}

// plantOscillator plants the failover/failback pair: osc-up forces the
// mode to 1 whenever it reads 0, osc-down forces it to 0 whenever it
// reads 1, on offset timers that never coincide. The model checker must
// find the non-convergent cycle (GM003); the SAVE→LOAD loop through
// osc_mode is also a cross-monitor feedback cycle (GI004) and, inside
// each guardrail, a self-feedback loop (GV006).
func plantOscillator(m *Manifest, f *manifestFile) {
	up := &Guardrail{
		Name:  "osc-up",
		Timer: [2]float64{0, 2e9},
		Rules: []Rule{{Left: Load("osc_mode"), Cmp: ">=", Bound: Const(1)}},
		Saves: []Save{{Key: "osc_mode", Value: Const(1)}},
	}
	down := &Guardrail{
		Name:  "osc-down",
		Timer: [2]float64{1e9, 2e9},
		Rules: []Rule{{Left: Load("osc_mode"), Cmp: "<", Bound: Const(1)}},
		Saves: []Save{{Key: "osc_mode", Value: Const(0)}},
	}
	f.planted = append(f.planted, []*Guardrail{up, down})
	m.Findings = append(m.Findings,
		Finding{Code: "GM003", Guardrail: up.Name, Others: []string{down.Name}},
		Finding{Code: "GI004", Guardrail: down.Name, Others: []string{up.Name}},
		Finding{Code: "GV006", Guardrail: up.Name},
		Finding{Code: "GV006", Guardrail: down.Name},
	)
}

// render lays the file out: feature declarations, asserts, then the
// guardrails with each planted group inserted at a seeded position
// (keeping its internal order).
func (f *manifestFile) render(file int, rng *RNG) string {
	seq := append([]*Guardrail(nil), f.background...)
	for _, group := range f.planted {
		at := rng.Intn(len(seq) + 1)
		for _, g := range group {
			seq = append(seq, nil)
			copy(seq[at+1:], seq[at:])
			seq[at] = g
			at += 1 + rng.Intn(len(seq)-at)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Tool family %d: generated by benchmark/gen.\n\n", file)
	for _, line := range f.features {
		b.WriteString(line + "\n")
	}
	b.WriteString("\n")
	for _, line := range f.asserts {
		b.WriteString(line + "\n")
	}
	for _, g := range seq {
		b.WriteString("\n" + g.Text())
	}
	return b.String()
}
