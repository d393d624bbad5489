// Package interfere is the whole-deployment static analyzer: where the
// VM verifier (internal/vm) proves one monitor program safe in
// isolation and the spec linter (internal/spec/vet) checks one file's
// guardrails for authoring bugs, this package reasons about a
// *deployment* — a set of compiled guardrails that will share kernel
// hook sites and feature-store keys — and reports interference that no
// per-program check can see:
//
//   - action conflicts: two monitors that can fire on the same hook
//     whose certified value intervals (vm.Analyze store facts) admit
//     contradictory simultaneous actions — SAVEs of provably-disjoint
//     values to one key, REPLACE ping-pong or divergent replacement of
//     one policy, duplicate demotion of one task group;
//   - feedback cycles: SAVE→LOAD dataflow cycles across monitors
//     (monitor A's corrective SAVE feeds a key monitor B's rules read,
//     and B's SAVE feeds A), found by SCC over the inter-monitor graph;
//   - aggregate hook budgets: the worst-case cost of one hook firing is
//     the *sum* of the attached monitors' certified MaxSteps — each may
//     fit a per-program budget while the site blows its envelope;
//   - dead guardrails: monitors whose rules are unsatisfiable — so their
//     actions can never fire — given the declared feature ranges and the
//     certified SAVE ranges of every in-deployment producer of their
//     inputs.
//
// The analysis is closed-world: declared feature ranges and producer
// SAVE certificates are trusted as the only writers of those keys.
// Findings are Diagnostics with stable positioned codes (GI001…), the
// deployment analogue of vet's GV codes. The kernel's admission test
// (kernel.AdmitDeployment) enforces the budget half at load time;
// cmd/grailcheck surfaces the rest offline.
package interfere

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/vm"
)

// Severity grades a diagnostic, mirroring vet's convention: a
// deployment "checks clean" when it produces zero Warn diagnostics.
type Severity int

// Severities.
const (
	// Info flags a property of the deployment worth a look.
	Info Severity = iota
	// Warn flags interference that is very likely a deployment bug.
	Warn
)

// String names the severity.
func (s Severity) String() string {
	if s == Warn {
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity name, keeping report artifacts
// readable without this package's constants.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// Diagnostic codes. GI codes are stable: tooling and CI gates match on
// them.
const (
	// CodeSaveConflict: two co-firing monitors SAVE provably-disjoint
	// value ranges to the same feature key.
	CodeSaveConflict = "GI001"
	// CodeReplaceConflict: co-firing REPLACE actions that ping-pong a
	// policy pair or replace one policy with different targets.
	CodeReplaceConflict = "GI002"
	// CodeDuplicateAction: co-firing monitors apply the same corrective
	// action to the same subject (duplicate DEPRIORITIZE / RETRAIN).
	CodeDuplicateAction = "GI003"
	// CodeFeedbackCycle: a SAVE→LOAD cycle across monitors.
	CodeFeedbackCycle = "GI004"
	// CodeHookBudget: a hook site's summed certified MaxSteps exceeds
	// its step budget.
	CodeHookBudget = "GI005"
	// CodeDeadGuardrail: a monitor's rules cannot be violated given the
	// deployment's certified input ranges.
	CodeDeadGuardrail = "GI006"
	// CodeDuplicateName: the deployment contains two guardrails with
	// the same name (the runtime would reject the second load).
	CodeDuplicateName = "GI007"
	// CodeRefinedVerify: a program that verifies open-world fails
	// verification under the deployment's certified input ranges (e.g.
	// a divisor a producer proves constant zero).
	CodeRefinedVerify = "GI008"
)

// Diagnostic is one deployment-level finding.
type Diagnostic struct {
	// Code is the stable diagnostic code (GI001…).
	Code string `json:"code"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Pos is the source position of the primary offending construct.
	Pos spec.Pos `json:"pos"`
	// Guardrail names the primary guardrail the finding is anchored to.
	Guardrail string `json:"guardrail"`
	// Others names the other guardrails implicated (conflict partners,
	// cycle members, budget contributors).
	Others []string `json:"others,omitempty"`
	// Site is the shared hook site for hook-scoped findings ("TIMER"
	// for timer-coincidence findings).
	Site string `json:"site,omitempty"`
	// Message explains the finding.
	Message string `json:"message"`
	// Status, when witness synthesis ran (Deployment.Witness), grades
	// the finding CONFIRMED (a concrete joint input replayed through the
	// real VM reproduces the interference) or PLAUSIBLE (no such input
	// found within the search bounds; the sound static claim stands).
	// Empty when synthesis was not attempted for this code.
	Status vm.WitnessStatus `json:"witness_status,omitempty"`
	// Witness is the replayable counterexample backing a CONFIRMED
	// status.
	Witness *vm.Witness `json:"witness,omitempty"`
	// Trace is the multi-step abstract trace behind a temporal finding
	// (the model checker's GM codes): one line per step from the initial
	// deployment state to the violating state or cycle. Empty for
	// single-step GI findings.
	Trace []string `json:"trace,omitempty"`
}

// String renders "line:col: severity: [CODE] guardrail g: message",
// followed by the witness verdict when synthesis ran.
func (d Diagnostic) String() string {
	name := d.Guardrail
	if len(d.Others) > 0 {
		name += " (with " + strings.Join(d.Others, ", ") + ")"
	}
	s := fmt.Sprintf("%s: %s: [%s] guardrail %s: %s",
		d.Pos, d.Severity, d.Code, name, d.Message)
	switch d.Status {
	case vm.WitnessConfirmed:
		s += fmt.Sprintf(" [CONFIRMED: %s]", d.Witness)
	case vm.WitnessPlausible:
		s += " [PLAUSIBLE: no witness within search bounds]"
	}
	return s
}

// Grade records the outcome of a witness search: CONFIRMED with the
// witness found, or PLAUSIBLE (the static claim stands) when w is nil.
func (d *Diagnostic) Grade(w *vm.Witness) {
	d.Status, d.Witness = vm.WitnessPlausible, w
	if w != nil {
		d.Status = vm.WitnessConfirmed
	}
}

// Deployment is the analyzer's input: the compiled guardrails that will
// be loaded together, the declared feature ranges they operate under,
// and the per-hook-site step budgets to check aggregate load against.
type Deployment struct {
	// Monitors are the compiled guardrails of the deployment.
	Monitors []*compile.Compiled
	// Features are the declared feature ranges (merged across the
	// deployment's spec files; the first declaration of a key wins).
	Features []*spec.FeatureDecl
	// HookBudget is the default per-hook-site certified step budget
	// (the sum of attached monitors' worst-case steps); 0 = unlimited.
	HookBudget int
	// HookBudgets overrides the budget per site.
	HookBudgets map[string]int
	// Shards is the kernel pool width the deployment runs on (0 or 1 =
	// single loop). Budgets declare one event loop's per-firing step
	// capacity; on an N-shard pool each hook firing lands on exactly
	// one of N loops, so a site's effective budget is budget × N rather
	// than the single-loop figure.
	Shards int
	// Witness requests bounded counterexample synthesis for co-firing
	// findings (GI001–GI003): each is annotated CONFIRMED with a
	// replayable joint input, or downgraded to PLAUSIBLE when no input
	// within the search bounds co-fires the pair. See witness.go.
	Witness bool
	// WitnessBudget bounds the assignment enumeration per finding
	// (0 = DefaultWitnessBudget).
	WitnessBudget int

	// memo holds vm.AnalyzeWith's results for this deployment, keyed by
	// the program and the env's answer at each of its LOADs: all that the
	// analyzer reads of its CellEnv (loadVal; pinned by
	// vm.TestAnalyzeWithDependsOnlyOnLoadedCells). Unbounded, because its
	// callers' own bounds (monitors, MaxStates × monitors) already bound it.
	memo    map[analysisIn]analysis
	memoKey []byte // scratch for analysisIn.loads
	// coupled is the coupling of Monitors, computed on first use.
	coupled *coupling
}

type analysisIn struct {
	p     *vm.Program
	loads string
}

type analysis struct {
	a   *vm.Analysis
	err error
}

// Analysis is vm.AnalyzeWith(p, vm.NumBuiltinHelpers, env), performed
// once per distinct answer of env on the cells p LOADs. Every deployment
// check analyzes through here, so Analyze and a following
// modelcheck.Check of one value share results. Do not modify the result.
func (d *Deployment) Analysis(p *vm.Program, env vm.CellEnv) (*vm.Analysis, error) {
	return d.analysis(p, env, nil)
}

// analysis is Analysis with proof, when non-nil, standing in for the
// analyzer on a miss: proof must be what vm.AnalyzeWith(p,
// vm.NumBuiltinHelpers, env) returns, as compile's Compiled.Proof is for
// the nil env.
func (d *Deployment) analysis(p *vm.Program, env vm.CellEnv, proof *vm.Analysis) (*vm.Analysis, error) {
	key := d.memoKey[:0]
	for _, in := range p.Code {
		if in.Op != vm.OpLoad {
			continue
		}
		// No certificate is the zero Interval: both analyze as top.
		var iv vm.Interval
		if env != nil {
			if v, ok := env(in.Cell); ok {
				iv = v
			}
		}
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(iv.Lo))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(iv.Hi))
		key = strconv.AppendBool(strconv.AppendBool(key, iv.Num), iv.NaN)
	}
	d.memoKey = key
	r, hit := d.memo[analysisIn{p, string(key)}]
	if !hit {
		if d.memo == nil {
			d.memo = map[analysisIn]analysis{}
		}
		if proof != nil {
			r.a = proof
		} else {
			r.a, r.err = vm.AnalyzeWith(p, vm.NumBuiltinHelpers, env)
		}
		d.memo[analysisIn{p, string(key)}] = r
	}
	return r.a, r.err
}

// Analyses counts the abstract interpretations performed so far: one per
// memo entry.
//
//guardrails:testhook TestReportsPinned and TestBackgroundMonitorsAnalyzedOnce pin the memo's size
func (d *Deployment) Analyses() int { return len(d.memo) }

// budgetFor resolves the budget for one hook site (0 = unlimited).
func (d *Deployment) budgetFor(site string) int {
	if b, ok := d.HookBudgets[site]; ok {
		return b
	}
	return d.HookBudget
}

// MonitorLoad is one guardrail's contribution to a hook site's
// worst-case cost.
type MonitorLoad struct {
	Guardrail string `json:"guardrail"`
	MaxSteps  int    `json:"max_steps"`
}

// SiteLoad summarizes one hook site's aggregate worst-case load.
type SiteLoad struct {
	Site string `json:"site"`
	// Budget is the site's declared single-loop step budget (0 =
	// unlimited).
	Budget int `json:"budget,omitempty"`
	// Shards and EffectiveBudget are set when the deployment declares a
	// multi-shard pool: EffectiveBudget = Budget × Shards is what Total
	// is checked against.
	Shards          int `json:"shards,omitempty"`
	EffectiveBudget int `json:"effective_budget,omitempty"`
	// Total is the summed certified MaxSteps of the attached monitors —
	// the worst-case interpreter steps one hook firing can cost.
	Total    int           `json:"total_max_steps"`
	Monitors []MonitorLoad `json:"monitors"`
}

// Report is the analyzer's output: the findings plus the per-site load
// table (reported for every site, within budget or not, so the report
// doubles as the deployment's overhead inventory).
type Report struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Sites       []SiteLoad   `json:"sites,omitempty"`
}

// Warnings counts warn-severity diagnostics.
func (r *Report) Warnings() int { return Warnings(r.Diagnostics) }

// Warnings counts the warn-severity diagnostics in ds.
func Warnings(ds []Diagnostic) int {
	n := 0
	for _, d := range ds {
		if d.Severity == Warn {
			n++
		}
	}
	return n
}

// Clean reports a deployment with no warn-severity findings.
func (r *Report) Clean() bool { return r.Warnings() == 0 }

// Summary renders a one-line count of findings by severity.
func (r *Report) Summary() string {
	warns := r.Warnings()
	infos := len(r.Diagnostics) - warns
	var parts []string
	if warns > 0 {
		s := "s"
		if warns == 1 {
			s = ""
		}
		parts = append(parts, fmt.Sprintf("%d warning%s", warns, s))
	}
	if infos > 0 {
		parts = append(parts, fmt.Sprintf("%d info", infos))
	}
	if len(parts) == 0 {
		return "no findings"
	}
	return strings.Join(parts, ", ")
}

// monFacts is the per-monitor certificate bundle the cross-monitor
// checks consume.
type monFacts struct {
	c *compile.Compiled

	// saves maps SAVEd keys to their certified value ranges, from the
	// deployment-refined analysis when it succeeded (baseline
	// otherwise). Only reachable stores contribute.
	saves map[string]vm.Interval
	// saveKeys are saves' keys, sorted, once saves is final.
	saveKeys []string
	// acts: the monitor has a REPLACE, DEPRIORITIZE or RETRAIN action,
	// which GI002 and GI003 compare.
	acts bool

	// canFire: some exit may return 0 under the deployment env — the
	// violation path (and thus every action) is live.
	canFire bool
	// rangedKeys lists the env keys the refined analysis constrained,
	// for diagnostics.
	rangedKeys []string
	// refinedErr is a verification failure under the deployment env.
	refinedErr error

	maxSteps int
}

// Analyze runs every deployment-level check and returns the report.
// The input's declared fields are not mutated. Diagnostics are ordered
// by code, then primary guardrail, then message.
func Analyze(d *Deployment) *Report {
	r := &Report{}
	facts := make([]*monFacts, 0, len(d.Monitors))

	// GI007 duplicate names first: the runtime keys monitors by name,
	// so later same-name entries shadow rather than compose. Facts are
	// still computed for every entry so other findings stay visible.
	seen := map[string]int{}
	for i, c := range d.Monitors {
		if j, dup := seen[c.Name]; dup {
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Code: CodeDuplicateName, Severity: Warn,
				Pos: c.Source.Pos, Guardrail: c.Name,
				Message: fmt.Sprintf("guardrail %q appears twice in the deployment (entries %d and %d): the runtime rejects duplicate loads",
					c.Name, j, i),
			})
		} else {
			seen[c.Name] = i
		}
	}

	// Pass 1: open-world facts — every monitor's baseline store
	// certificates, which become the producer ranges of pass 2. The
	// compiler's proof, when it kept one, fills the memo entry.
	baseline := make([]*vm.Analysis, len(d.Monitors))
	for i, c := range d.Monitors {
		f := &monFacts{c: c, saves: map[string]vm.Interval{}}
		a, err := d.analysis(c.Program, nil, c.Proof)
		if err == nil {
			baseline[i] = a
			f.maxSteps = a.MaxSteps
			f.fillSaves(a)
			f.canFire = a.CanViolate()
		} else {
			// A program that does not verify open-world (e.g. a decoded
			// image assembled by hand) gets conservative facts: it may
			// fire, and its cost falls back to Meta.
			f.canFire = true
			f.maxSteps = c.Program.Meta.MaxSteps
		}
		if m := c.Program.Meta.MaxSteps; m > 0 {
			f.maxSteps = m
		}
		facts = append(facts, f)
	}

	// Pass 2: refine each monitor under the deployment env (declared
	// feature ranges + the other monitors' certified SAVE ranges).
	features := spec.RangesOf(d.Features)
	savers := map[string][]int{} // key → the monitors with a certified SAVE of it, ascending
	for i, f := range facts {
		for key := range f.saves {
			savers[key] = append(savers[key], i)
		}
	}
	for i, f := range facts {
		if baseline[i] == nil {
			continue
		}
		env, ranged := deployEnv(f.c, i, facts, savers, features)
		if len(ranged) == 0 {
			continue // open-world facts are already exact
		}
		a, err := d.Analysis(f.c.Program, env)
		if err != nil {
			f.refinedErr = err
			f.rangedKeys = ranged
			continue
		}
		f.rangedKeys = ranged
		f.canFire = a.CanViolate()
		f.saves = map[string]vm.Interval{}
		f.fillSaves(a)
	}

	for _, f := range facts {
		if f.refinedErr != nil {
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Code: CodeRefinedVerify, Severity: Warn,
				Pos: f.c.Source.Pos, Guardrail: f.c.Name,
				Message: fmt.Sprintf("verification fails under the deployment's value ranges (%s): %v",
					strings.Join(f.rangedKeys, ", "), f.refinedErr),
			})
		} else if !f.canFire {
			ctx := "independent of deployment context"
			if len(f.rangedKeys) > 0 {
				ctx = "given the certified ranges of " + strings.Join(f.rangedKeys, ", ")
			}
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Code: CodeDeadGuardrail, Severity: Warn,
				Pos: f.c.Source.Pos, Guardrail: f.c.Name,
				Message: fmt.Sprintf("dead guardrail: the rules cannot be violated %s, so its actions never fire", ctx),
			})
		}
	}

	for _, f := range facts {
		for k := range f.saves {
			f.saveKeys = append(f.saveKeys, k)
		}
		sort.Strings(f.saveKeys)
		f.acts = slices.ContainsFunc(f.c.Actions, func(a spec.Action) bool {
			switch a.(type) {
			case *spec.ReplaceAction, *spec.DeprioritizeAction, *spec.RetrainAction:
				return true
			}
			return false
		})
	}

	var wit *witnesser
	if d.Witness {
		wit = newWitnesser(features, d.WitnessBudget)
	}
	c := d.coupling()
	checkConflicts(r, facts, c, wit)
	checkCycles(r, facts, c)
	checkBudgets(r, d, facts)

	SortDiagnostics(r.Diagnostics)
	return r
}

// SortDiagnostics puts findings in report order: by code, then primary
// guardrail, then message (stable).
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Guardrail != b.Guardrail {
			return a.Guardrail < b.Guardrail
		}
		return a.Message < b.Message
	})
}

// fillSaves joins a's reachable store certificates into f.saves.
func (f *monFacts) fillSaves(a *vm.Analysis) {
	for _, s := range a.Stores {
		key := f.c.Program.Symbols[s.Cell]
		if prev, ok := f.saves[key]; ok {
			f.saves[key] = prev.Join(s.Val)
		} else {
			f.saves[key] = s.Val
		}
	}
}

// savePos locates the SAVE action writing key, for diagnostics.
func (f *monFacts) savePos(key string) spec.Pos {
	for _, a := range f.c.Actions {
		if sa, ok := a.(*spec.SaveAction); ok && sa.Key == key {
			return sa.Pos
		}
	}
	return f.c.Source.Pos
}

// deployEnv builds monitor i's input environment: per feature-store
// cell, the declared range when one exists, else the join of the other
// monitors' certified SAVE ranges of that key. Returns the env plus the
// sorted list of keys it constrains (empty = nothing to refine). A
// monitor's own SAVEs never constrain its own LOADs — self-feedback is
// vet's GV006, not a certificate.
func deployEnv(c *compile.Compiled, self int, facts []*monFacts, savers map[string][]int, features map[string]*spec.FeatureDecl) (vm.CellEnv, []string) {
	byCell := map[int32]vm.Interval{}
	var ranged []string
	for cell, key := range c.Program.Symbols {
		if fd, ok := features[key]; ok {
			byCell[int32(cell)] = vm.RangeInterval(fd.Lo, fd.Hi)
			ranged = append(ranged, key)
			continue
		}
		var acc vm.Interval
		found := false
		for _, j := range savers[key] {
			if j == self {
				continue
			}
			// Read live: pass 2 has refined the monitors before self.
			if iv, ok := facts[j].saves[key]; ok {
				if !found {
					acc, found = iv, true
				} else {
					acc = acc.Join(iv)
				}
			}
		}
		if found {
			byCell[int32(cell)] = acc
			ranged = append(ranged, key)
		}
	}
	sort.Strings(ranged)
	env := func(cell int32) (vm.Interval, bool) {
		iv, ok := byCell[cell]
		return iv, ok
	}
	return env, ranged
}

// --- co-firing -------------------------------------------------------

// firstSharedGroup returns the first hook group on which two monitors
// can fire at the same instant, and whether there is one. The groups
// are every FUNCTION site both attach to, in sorted order, then the
// "TIMER" pseudo-group when both have timers that can tick
// coincidentally. Monitors on unrelated triggers (or a timer vs a hook
// site) do not co-fire — the conflict checks are per-hook by design.
// It runs for every monitor pair, so it allocates nothing.
func firstSharedGroup(a, b *monFacts) (string, bool) {
	as, bs := a.c.Footprint.Sites, b.c.Footprint.Sites // both sorted
	for i, j := 0, 0; i < len(as) && j < len(bs); {
		switch {
		case as[i] == bs[j]:
			return as[i], true
		case as[i] < bs[j]:
			i++
		default:
			j++
		}
	}
	if timersCanCoincide(a.c.Footprint.Timers, b.c.Footprint.Timers) {
		return "TIMER", true
	}
	return "", false
}

// timersCanCoincide reports whether any pair of timer triggers can tick
// at the same simulated instant. Two arithmetic progressions
// start+k·interval coincide iff their start offset is divisible by
// gcd(i1, i2); non-integral parameters are handled conservatively
// (assume coincidence). Stop windows that provably do not overlap rule
// coincidence out.
func timersCanCoincide(as, bs []*spec.TimerTrigger) bool {
	for _, a := range as {
		for _, b := range bs {
			if timerPairCoincides(a, b) {
				return true
			}
		}
	}
	return false
}

func timerPairCoincides(a, b *spec.TimerTrigger) bool {
	// Disjoint active windows cannot coincide. A window is
	// [start, stop) with stop 0 = forever.
	if a.Stop > 0 && a.Stop <= b.Start {
		return false
	}
	if b.Stop > 0 && b.Stop <= a.Start {
		return false
	}
	// Exact conversion bounds at 2^53 (not 2^62 as this check once
	// allowed): past the float64 integer limit, s1-s2 rounds, and a
	// divisibility test on the rounded difference can wrongly rule out
	// real coincidences. When exact arithmetic is impossible, assume
	// coincidence (schedule.go).
	s1, ok1 := ExactInt64(a.Start)
	i1, ok2 := ExactInt64(a.Interval)
	s2, ok3 := ExactInt64(b.Start)
	i2, ok4 := ExactInt64(b.Interval)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return true // conservative: cannot reason exactly
	}
	g := Gcd64(i1, i2)
	if g == 0 {
		return s1 == s2
	}
	// |s1|,|s2| ≤ 2^53, so the difference cannot overflow int64.
	return (s1-s2)%g == 0
}

// --- action conflicts (GI001–GI003) ----------------------------------

// sharesKey reports whether two sorted key lists have a key in common.
func sharesKey(as, bs []string) bool {
	for i, j := 0, 0; i < len(as) && j < len(bs); {
		switch {
		case as[i] == bs[j]:
			return true
		case as[i] < bs[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// checkConflicts visits the candidate pairs only, in ascending (i, j)
// order: those sharing a hook site, and those whose monitors both have
// timers (firstSharedGroup then asks whether the timers coincide). The
// cost is the sum of the firing groups' squared sizes, not the number of
// monitors squared, and a pair with no saved key in common and not two
// monitors with REPLACE, DEPRIORITIZE or RETRAIN actions — nothing the
// three checks compare — is dropped before anything else is asked.
func checkConflicts(r *Report, facts []*monFacts, c *coupling, wit *witnesser) {
	stamp := make([]int, len(facts)) // stamp[j] == i+1: j is already a partner of i
	var partners []int
	for i, a := range facts {
		if !a.canFire {
			continue
		}
		partners = partners[:0]
		groups := a.c.Footprint.Sites
		for gi := 0; gi <= len(groups); gi++ {
			var members []int
			switch {
			case gi < len(groups):
				members = c.sites[groups[gi]]
			case len(a.c.Footprint.Timers) > 0:
				members = c.timers
			}
			for _, j := range members[sort.SearchInts(members, i+1):] {
				if stamp[j] != i+1 {
					stamp[j] = i + 1
					partners = append(partners, j)
				}
			}
		}
		sort.Ints(partners)
		for _, j := range partners {
			b := facts[j]
			if !b.canFire || !(a.acts && b.acts) && !sharesKey(a.saveKeys, b.saveKeys) {
				continue
			}
			// Conflicts are per-pair properties; report them once
			// against the first shared group.
			site, ok := firstSharedGroup(a, b)
			if !ok {
				continue
			}
			checkSaveConflict(r, a, b, site, wit)
			checkReplaceConflict(r, a, b, site, wit)
			checkDuplicateActions(r, a, b, site, wit)
		}
	}
}

// checkSaveConflict reports GI001: both monitors SAVE the same key and
// their certified value ranges share no value — when both fire on one
// hook dispatch, the key's final value is a dispatch-order accident and
// one monitor's corrective write is always lost.
func checkSaveConflict(r *Report, a, b *monFacts, site string, wit *witnesser) {
	for _, k := range a.saveKeys {
		vb, ok := b.saves[k]
		if !ok {
			continue
		}
		va := a.saves[k]
		if !va.DisjointFrom(vb) {
			continue
		}
		diag := Diagnostic{
			Code: CodeSaveConflict, Severity: Warn,
			Pos: a.savePos(k), Guardrail: a.c.Name, Others: []string{b.c.Name},
			Site: site,
			Message: fmt.Sprintf("both SAVE %q on hook %s with contradictory certified values (%s vs %s): the surviving value depends on dispatch order",
				k, site, va, vb),
		}
		wit.saveConflict(&diag, a, b, k)
		r.Diagnostics = append(r.Diagnostics, diag)
	}
}

// checkReplaceConflict reports GI002: REPLACE ping-pong (A installs
// what B removes and vice versa) or divergent replacement (both replace
// one policy with different targets).
func checkReplaceConflict(r *Report, a, b *monFacts, site string, wit *witnesser) {
	for _, actA := range a.c.Actions {
		ra, ok := actA.(*spec.ReplaceAction)
		if !ok {
			continue
		}
		for _, actB := range b.c.Actions {
			rb, ok := actB.(*spec.ReplaceAction)
			if !ok {
				continue
			}
			var diag Diagnostic
			switch {
			case ra.Old == rb.New && ra.New == rb.Old:
				diag = Diagnostic{
					Code: CodeReplaceConflict, Severity: Warn,
					Pos: ra.Pos, Guardrail: a.c.Name, Others: []string{b.c.Name},
					Site: site,
					Message: fmt.Sprintf("REPLACE ping-pong on hook %s: %s vs %s — each undoes the other's failover",
						site, ra, rb),
				}
			case ra.Old == rb.Old && ra.New != rb.New:
				diag = Diagnostic{
					Code: CodeReplaceConflict, Severity: Warn,
					Pos: ra.Pos, Guardrail: a.c.Name, Others: []string{b.c.Name},
					Site: site,
					Message: fmt.Sprintf("divergent replacement of policy %q on hook %s: %s vs %s — the installed policy depends on dispatch order",
						ra.Old, site, ra, rb),
				}
			default:
				continue
			}
			wit.coFire(&diag, a, b)
			r.Diagnostics = append(r.Diagnostics, diag)
		}
	}
}

// checkDuplicateActions reports GI003: both monitors demote the same
// task group (double demotion compounds: the second DEPRIORITIZE sees
// the already-demoted priority) or retrain the same model (burning the
// retrainer's rate budget twice per incident).
func checkDuplicateActions(r *Report, a, b *monFacts, site string, wit *witnesser) {
	for _, actA := range a.c.Actions {
		switch na := actA.(type) {
		case *spec.DeprioritizeAction:
			for _, actB := range b.c.Actions {
				if nb, ok := actB.(*spec.DeprioritizeAction); ok && na.Target == nb.Target {
					diag := Diagnostic{
						Code: CodeDuplicateAction, Severity: Warn,
						Pos: na.Pos, Guardrail: a.c.Name, Others: []string{b.c.Name},
						Site: site,
						Message: fmt.Sprintf("both DEPRIORITIZE task group %q on hook %s: one hook firing demotes it twice",
							na.Target, site),
					}
					wit.coFire(&diag, a, b)
					r.Diagnostics = append(r.Diagnostics, diag)
				}
			}
		case *spec.RetrainAction:
			for _, actB := range b.c.Actions {
				if nb, ok := actB.(*spec.RetrainAction); ok && na.Model == nb.Model {
					diag := Diagnostic{
						Code: CodeDuplicateAction, Severity: Info,
						Pos: na.Pos, Guardrail: a.c.Name, Others: []string{b.c.Name},
						Site: site,
						Message: fmt.Sprintf("both RETRAIN model %q on hook %s: one incident spends the retraining budget twice",
							na.Model, site),
					}
					wit.coFire(&diag, a, b)
					r.Diagnostics = append(r.Diagnostics, diag)
				}
			}
		}
	}
}

// --- feedback cycles (GI004) -----------------------------------------

// checkCycles finds SAVE→LOAD cycles across monitors: edge A→B when a
// reachable SAVE of A writes a key B's rules LOAD. Strongly connected
// components of two or more monitors are reported once each (a
// monitor's own SAVE feeding its own rules is vet's GV006). Dead
// monitors contribute no edges — their SAVEs cannot execute. Edges come
// from the coupling's per-key reader lists, so building them costs the
// edges found rather than every monitor pair.
func checkCycles(r *Report, facts []*monFacts, c *coupling) {
	n := len(facts)
	adj := make([][]int, n)
	edgeKeys := map[[2]int][]string{}
	for i, a := range facts {
		if !a.canFire {
			continue
		}
		for _, k := range a.saveKeys {
			for _, j := range c.readers[k] {
				if j == i {
					continue
				}
				if len(edgeKeys[[2]int{i, j}]) == 0 {
					adj[i] = append(adj[i], j)
				}
				edgeKeys[[2]int{i, j}] = append(edgeKeys[[2]int{i, j}], k)
			}
		}
		sort.Ints(adj[i])
	}

	for _, scc := range SCCs(adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Slice(scc, func(a, b int) bool { return facts[scc[a]].c.Name < facts[scc[b]].c.Name })
		names := make([]string, len(scc))
		inSCC := map[int]bool{}
		for k, idx := range scc {
			names[k] = facts[idx].c.Name
			inSCC[idx] = true
		}
		var edges []string
		for _, i := range scc {
			for _, j := range adj[i] {
				if inSCC[j] {
					edges = append(edges, fmt.Sprintf("%s —SAVE %s→ %s",
						facts[i].c.Name, strings.Join(edgeKeys[[2]int{i, j}], ","), facts[j].c.Name))
				}
			}
		}
		sort.Strings(edges)
		r.Diagnostics = append(r.Diagnostics, Diagnostic{
			Code: CodeFeedbackCycle, Severity: Warn,
			Pos: facts[scc[0]].c.Source.Pos, Guardrail: names[0], Others: names[1:],
			Message: fmt.Sprintf("feedback cycle: each monitor's corrective SAVE feeds a key another's rules read (%s) — violations can re-trigger each other indefinitely",
				strings.Join(edges, "; ")),
		})
	}
}

// SCCs returns the strongly connected components of adj (Tarjan,
// iterative: deployments and explored state graphs can be large).
func SCCs(adj [][]int) [][]int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack, sccs = []int{}, [][]int{}
	next := 0

	type frame struct{ v, ei int }
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		call := []frame{{start, 0}}
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei == 0 {
				index[v], low[v] = next, next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					call = append(call, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return sccs
}

// --- aggregate budgets (GI005) ---------------------------------------

// checkBudgets sums certified MaxSteps per FUNCTION site, fills the
// report's site table, and flags sites over budget. Every attached
// monitor counts — shadow or not, its program still runs on the hook.
func checkBudgets(r *Report, d *Deployment, facts []*monFacts) {
	bySite := map[string][]MonitorLoad{}
	firstPos := map[string]spec.Pos{}
	firstName := map[string]string{}
	for _, f := range facts {
		for _, site := range f.c.Footprint.Sites {
			bySite[site] = append(bySite[site], MonitorLoad{Guardrail: f.c.Name, MaxSteps: f.maxSteps})
			if _, ok := firstPos[site]; !ok {
				firstPos[site] = f.c.Source.Pos
				firstName[site] = f.c.Name
			}
		}
	}
	sites := make([]string, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	shards := d.Shards
	if shards < 1 {
		shards = 1
	}
	for _, site := range sites {
		loads := bySite[site]
		total := 0
		for _, l := range loads {
			total += l.MaxSteps
		}
		budget := d.budgetFor(site)
		effective := budget * shards
		sl := SiteLoad{Site: site, Budget: budget, Total: total, Monitors: loads}
		if shards > 1 {
			sl.Shards, sl.EffectiveBudget = shards, effective
		}
		r.Sites = append(r.Sites, sl)
		if budget > 0 && total > effective {
			parts := make([]string, len(loads))
			others := make([]string, 0, len(loads)-1)
			for i, l := range loads {
				parts[i] = fmt.Sprintf("%s=%d", l.Guardrail, l.MaxSteps)
				if l.Guardrail != firstName[site] {
					others = append(others, l.Guardrail)
				}
			}
			msg := fmt.Sprintf("hook %s worst-case cost %d steps exceeds its budget of %d (%s): one firing may run all attached monitors",
				site, total, budget, strings.Join(parts, " + "))
			if shards > 1 {
				msg = fmt.Sprintf("hook %s worst-case cost %d steps exceeds its effective budget of %d (%d per loop × %d shards; %s): one firing may run all attached monitors",
					site, total, effective, budget, shards, strings.Join(parts, " + "))
			}
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Code: CodeHookBudget, Severity: Warn,
				Pos: firstPos[site], Guardrail: firstName[site], Others: others,
				Site: site, Message: msg,
			})
		}
	}
}
