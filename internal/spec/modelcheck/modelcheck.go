// Package modelcheck is a bounded abstract model checker over whole
// guardrail deployments.
//
// The per-program verifier (internal/vm.Analyze) certifies one monitor
// in isolation; the interference analyzer (internal/spec/interfere)
// certifies pairwise couplings. Neither answers temporal questions
// about the deployment as a dynamical system: "can the escalation
// ladder ever skip quarantine?", "does alert_level converge or
// oscillate forever?". This package does, within explicit bounds.
//
// The abstract state is a tuple of certified feature-store intervals —
// one per key the deployment reads or writes — obtained from the
// deployment's memoized vm.AnalyzeWith (interfere.Deployment.Analysis)
// under a state-dependent cell environment. Transitions
// are monitor firings: one per hook site, and one per timer
// coincidence class scheduled over a single timer hyperperiod (shared
// machinery with interfere, see TimerTicks). The checker explores the
// induced transition system exhaustively to a configurable depth and
// state bound, widening per-key interval sequences so loops with
// strictly growing counters still converge. It never builds the
// product of independent parts: each connected component of the
// deployment's coupling (interfere.Deployment.Components: monitors that
// fire together or share a written key) is explored as a model of its
// own, so independent components add states instead of multiplying
// them (see system).
//
// Declared properties ("assert always p", "assert eventually p within
// K") are evaluated over the explored graph. Proved properties carry a
// Certificate stating the exact bounds the proof holds under; refuted
// ones emit GM-coded diagnostics carrying a multi-step abstract trace,
// which the witness engine (witness.go) tries to concretize into a
// replayable event schedule: CONFIRMED findings reproduce on the real
// interpreter, PLAUSIBLE ones stand as sound abstract claims.
package modelcheck

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/vm"
)

// Diagnostic codes (GM = guardrail model checking). Codes are stable:
// tooling and CI gates match on them.
const (
	// CodeSafety: an "assert always" property is violated in a
	// reachable abstract state.
	CodeSafety = "GM001"
	// CodeLiveness: an "assert eventually … within K" property has an
	// execution that stays false for K steps.
	CodeLiveness = "GM002"
	// CodeOscillation: a reachable cycle writes provably different
	// values to the same feature key — a non-convergent SAVE
	// oscillation.
	CodeOscillation = "GM003"
	// CodeVacuous: a declared property's predicate has no reachable
	// state where it provably holds or provably fails — the assertion
	// never bites and is likely miswritten.
	CodeVacuous = "GM004"
)

// Property checking outcomes.
const (
	// StatusProved: the property holds in every explored state, and
	// exploration was exhaustive within the certificate's bounds.
	StatusProved = "PROVED"
	// StatusRefuted: a counterexample trace exists in the abstraction.
	StatusRefuted = "REFUTED"
	// StatusInconclusive: exploration was truncated or the predicate
	// could not be decided abstractly.
	StatusInconclusive = "INCONCLUSIVE"
)

// Exploration defaults.
const (
	DefaultMaxDepth      = 48
	DefaultMaxStates     = 2048
	DefaultWidenAfter    = 8
	DefaultMaxTicks      = 4096
	DefaultWitnessBudget = 2048
)

// Config bounds one model-checking run.
type Config struct {
	// Properties are the temporal properties to check, in order.
	Properties []*spec.PropertyDecl
	// Shadow names monitors excluded from the transition relation
	// (deployed in shadow mode: they observe but do not act).
	Shadow []string
	// MaxDepth bounds the exploration depth in transition steps
	// (0 = DefaultMaxDepth).
	MaxDepth int
	// MaxStates bounds the number of distinct abstract states
	// (0 = DefaultMaxStates).
	MaxStates int
	// WidenAfter is the number of distinct interval values a key may
	// take before widening accelerates it (0 = DefaultWidenAfter).
	WidenAfter int
	// MaxTicks bounds the timer schedule enumeration per hyperperiod
	// (0 = DefaultMaxTicks).
	MaxTicks int
	// Witness enables concretization of refutations through the real
	// interpreter.
	Witness bool
	// WitnessBudget bounds the assignment enumeration per refutation
	// (0 = DefaultWitnessBudget).
	WitnessBudget int
}

// filled returns c with every unset bound at its default.
func (c Config) filled() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.MaxDepth, DefaultMaxDepth)
	def(&c.MaxStates, DefaultMaxStates)
	def(&c.WidenAfter, DefaultWidenAfter)
	def(&c.MaxTicks, DefaultMaxTicks)
	def(&c.WitnessBudget, DefaultWitnessBudget)
	return c
}

// Certificate states the exact bounds under which a proof holds. The
// proof is exhaustive within them: every deployment execution whose
// abstract projection stays inside the explored graph satisfies the
// property.
type Certificate struct {
	// States is the number of distinct abstract states explored, summed
	// over the deployment's components with the initial state they all
	// start from counted once.
	States int `json:"states"`
	// Transitions is the number of transition edges taken, summed over
	// the components.
	Transitions int `json:"transitions"`
	// Depth is the maximum exploration depth reached in any component.
	Depth int `json:"depth"`
	// HyperperiodNs is the timer hyperperiod the schedule was built
	// over (0 when the deployment has no timers or the schedule fell
	// back to conservative coincidence).
	HyperperiodNs int64 `json:"hyperperiod_ns,omitempty"`
	// WidenedKeys lists feature keys whose interval sequences were
	// widened; the proof covers the widened (larger) state space.
	WidenedKeys []string `json:"widened_keys,omitempty"`
}

// PropertyResult is the outcome for one declared property.
type PropertyResult struct {
	// Property is the declaration in source form.
	Property string `json:"property"`
	// Kind is "always" or "eventually".
	Kind string `json:"kind"`
	// Status is PROVED, REFUTED, or INCONCLUSIVE.
	Status string `json:"status"`
	// Reason explains an INCONCLUSIVE or REFUTED status.
	Reason string `json:"reason,omitempty"`
	// Certificate backs a PROVED status.
	Certificate *Certificate `json:"certificate,omitempty"`
}

// Report is the full model-checking result for one deployment.
type Report struct {
	// Properties holds one result per declared property, in
	// declaration order.
	Properties []PropertyResult `json:"properties,omitempty"`
	// Diagnostics are the GM-coded findings, sorted by (code,
	// guardrail, message).
	Diagnostics []interfere.Diagnostic `json:"diagnostics,omitempty"`
	// States is the number of distinct abstract states explored (see
	// Certificate).
	States int `json:"states"`
	// Transitions labels the transition groups of the model, in
	// schedule order.
	Transitions []string `json:"transitions,omitempty"`
	// HyperperiodNs is the timer hyperperiod (see Certificate).
	HyperperiodNs int64 `json:"hyperperiod_ns,omitempty"`
	// ConservativeSchedule reports that the timer schedule could not
	// be computed exactly (overflow or non-integral parameters) and
	// every timer fires as its own unordered transition instead.
	ConservativeSchedule bool `json:"conservative_schedule,omitempty"`
	// Shadow lists monitors excluded from the transition relation.
	Shadow []string `json:"shadow,omitempty"`
	// WidenedKeys lists keys whose values were widened.
	WidenedKeys []string `json:"widened_keys,omitempty"`
	// Truncated reports that exploration hit a bound; proofs are then
	// withheld (INCONCLUSIVE) but refutations still stand.
	Truncated bool `json:"truncated,omitempty"`
	// TruncationReason says which bound was hit.
	TruncationReason string `json:"truncation_reason,omitempty"`
}

// Warnings counts Warn-severity diagnostics.
func (r *Report) Warnings() int { return interfere.Warnings(r.Diagnostics) }

// Clean reports no diagnostics and no refuted or inconclusive
// properties.
func (r *Report) Clean() bool {
	if len(r.Diagnostics) > 0 {
		return false
	}
	for _, p := range r.Properties {
		if p.Status != StatusProved {
			return false
		}
	}
	return true
}

// Summary renders a one-line result.
func (r *Report) Summary() string {
	proved, refuted, inconclusive := 0, 0, 0
	for _, p := range r.Properties {
		switch p.Status {
		case StatusProved:
			proved++
		case StatusRefuted:
			refuted++
		default:
			inconclusive++
		}
	}
	s := fmt.Sprintf("modelcheck: %d state(s), %d propert%s (%d proved, %d refuted, %d inconclusive), %d warning(s)",
		r.States, len(r.Properties), plural(len(r.Properties), "y", "ies"),
		proved, refuted, inconclusive, r.Warnings())
	if r.Truncated {
		s += " [truncated: " + r.TruncationReason + "]"
	}
	return s
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// group is one transition of the abstract system: a set of monitors
// firing together (same hook site, or timers ticking at the same
// schedule offset), applied in deployment order.
type group struct {
	label string
	mons  []int // indexes into model.mons
	// fixed reports that every monitor of the group is effect.fixed, so
	// the group writes the same list in every state: writes, once
	// cached, is that list, and every edge of the group shares it.
	fixed  bool
	cached bool
	writes []write
}

// write records one feature-store write applied during a transition.
type write struct {
	mon  int         // index into model.mons
	key  int         // index into model.keys
	val  vm.Interval // certified store range (pre-join)
	must bool        // the monitor provably fired (strong update)
}

// effect is one active monitor's place in the transition relation. A
// monitor that loads no written key sees the same env in every state, so
// its writes are computed once, by the same code as everyone else's, the
// first time a group it belongs to fires.
type effect struct {
	fixed  bool    // loads no key an active monitor stores
	cached bool    // writes holds the fixed monitor's effect
	writes []write // the cached effect, in effectOf order
}

// node is one explored abstract state.
type node struct {
	vals     []vm.Interval
	sig      string // the m.index key: ids of vals over the written keys
	parent   int    // node index, -1 for the root
	viaGroup int    // group index taken from parent, -1 for the root
	depth    int
}

// edge is one transition of the explored graph, including back-edges
// to already-known states.
type edge struct {
	to     int
	group  int
	writes []write
}

// system is a deployment's abstract transition system, held as its
// independent components (interfere.Deployment.Components): monitors of
// different components never fire in one transition and never read each
// other's writes, so the deployment's state space is the interleaving
// of the components' own, and each is explored as a model of its own
// with its own groups and keys. A property is checked on the one model
// holding every key it reads that a monitor writes: a property spanning
// several components joins them, and an "eventually" property joins
// them all, since in the interleaving any group's firing is a step that
// delays it.
type system struct {
	cfg     Config
	mons    []*compile.Compiled // active (non-shadow) monitors
	labels  []string            // every transition group's label, in schedule order
	hyper   int64
	conserv bool
	models  []*model // one per (joined) component, in order of first monitor
	propOf  []*model // parallel to cfg.Properties: the model it is checked on

	// What the models explored together: distinct states (the initial
	// state, which every model starts from, counted once), transition
	// edges, the deepest state, and the first bound hit ("" = none).
	// MaxStates bounds states, so the models share it.
	states, edges, depth int
	truncReason          string
}

func (s *system) truncate(reason string) {
	if s.truncReason == "" {
		s.truncReason = reason
	}
}

// model is the abstract transition system of one component.
type model struct {
	sys      *system
	cfg      Config
	dep      *interfere.Deployment // owns the analysis memo
	mons     []*compile.Compiled   // the component's active monitors, in deployment order
	keys     []string              // sorted key universe: what mons load or store and its properties read
	keyIdx   map[string]int
	cellKeys map[*vm.Program][]int // per program: key index by cell, -1 outside the universe
	env      vm.CellEnv            // m.cell, bound once: envFor hands it out
	envKeys  []int                 // cellKeys of the program under evaluation
	envVals  []vm.Interval         // the state under evaluation
	written  []bool                // some active monitor stores the key
	sigPos   []int                 // by key index: byte offset of its id in a signature, -1 when unwritten
	declared []*spec.FeatureDecl   // by key index, nil when undeclared
	effects  []effect              // parallel to mons
	groups   []group               // the component's groups, in schedule order

	nodes   []node
	adj     [][]edge              // outgoing edges per node, in group order
	index   map[string]int        // state signature → node index
	next    []vm.Interval         // apply's scratch successor vector
	sig     []byte                // apply's scratch signature
	writes  []write               // apply's scratch write list
	widened []bool                // by key index: widening changed a value
	seen    []map[vm.Interval]int // per written key: distinct values observed → id
	accum   []vm.Interval         // per written key: running join for widening

	narrated map[[2]int]string // renderTrace's text of edge m.adj[n][i], by {n, i}
}

// finding is one GM diagnostic and the replay recipe behind it (nil when
// there is nothing to replay).
type finding struct {
	diag interfere.Diagnostic
	plan *witnessPlan
}

// Check model-checks a deployment against cfg's properties. It never
// fails: structural problems (a property predicate that cannot be
// compiled, an empty deployment) surface as INCONCLUSIVE results or
// diagnostics in the report.
func Check(dep *interfere.Deployment, cfg Config) *Report {
	s := buildSystem(dep, cfg)
	for _, m := range s.models {
		m.explore()
	}

	rep := &Report{
		States:               s.states,
		Transitions:          s.labels,
		HyperperiodNs:        s.hyper,
		ConservativeSchedule: s.conserv,
		Truncated:            s.truncReason != "",
		TruncationReason:     s.truncReason,
	}
	rep.Shadow = append(rep.Shadow, cfg.Shadow...)
	sort.Strings(rep.Shadow)
	for _, m := range s.models {
		for k, w := range m.widened {
			if w {
				rep.WidenedKeys = append(rep.WidenedKeys, m.keys[k])
			}
		}
	}
	sort.Strings(rep.WidenedKeys)

	cert := &Certificate{
		States:        s.states,
		Transitions:   s.edges,
		Depth:         s.depth,
		HyperperiodNs: s.hyper,
		WidenedKeys:   rep.WidenedKeys,
	}

	var found []finding
	for i, p := range cfg.Properties {
		res, f := s.propOf[i].checkProperty(p, cert)
		rep.Properties = append(rep.Properties, res)
		if f != nil {
			found = append(found, *f)
		}
	}
	for _, m := range s.models {
		found = m.checkOscillation(found)
	}

	diags := make([]interfere.Diagnostic, len(found))
	for i, f := range found {
		if cfg.Witness && f.plan != nil {
			f.diag.Grade(f.plan.m.searchWitness(f.plan, s.cfg.WitnessBudget))
		}
		diags[i] = f.diag
	}
	interfere.SortDiagnostics(diags)
	rep.Diagnostics = diags
	return rep
}

// buildSystem derives the abstract transition system from a deployment:
// the transition groups over every active monitor, then one model per
// component, components joined as the properties require.
func buildSystem(dep *interfere.Deployment, cfg Config) *system {
	s := &system{cfg: cfg.filled(), states: 1}

	shadow := map[string]bool{}
	for _, n := range cfg.Shadow {
		shadow[n] = true
	}
	active := make([]int, len(dep.Monitors)) // by deployment index: index into s.mons, -1 when inactive
	for i, c := range dep.Monitors {
		active[i] = -1
		if c == nil || c.Program == nil || shadow[c.Name] {
			continue
		}
		active[i] = len(s.mons)
		s.mons = append(s.mons, c)
	}
	groups := s.buildGroups()

	// Components of the active monitors; a shadow monitor may still have
	// joined two of them, which only coarsens the split.
	comp := make([]int, len(s.mons)) // active monitor → component
	var parent []int                 // component → the component it joined
	for _, members := range dep.Components() {
		n := len(parent)
		for _, i := range members {
			if a := active[i]; a >= 0 {
				comp[a] = n
			}
		}
		if slices.ContainsFunc(members, func(i int) bool { return active[i] >= 0 }) {
			parent = append(parent, n)
		}
	}
	find := func(c int) int {
		for parent[c] != c {
			c = parent[c]
		}
		return c
	}
	writer := map[string]int{} // written key → its writers' component
	for a, c := range s.mons {
		for _, k := range c.Footprint.Stores {
			writer[k] = comp[a]
		}
	}
	propKeys := make([][]string, len(cfg.Properties))
	home := make([]int, len(cfg.Properties)) // component, -1 = reads no written key
	for i, p := range cfg.Properties {
		propKeys[i] = spec.ExprKeys(p.Pred)
		home[i] = -1
		for _, k := range propKeys[i] {
			if c, ok := writer[k]; ok {
				if home[i] < 0 {
					home[i] = find(c)
				} else {
					parent[find(c)] = find(home[i])
				}
			}
		}
		if p.Kind == spec.PropEventually {
			for c := range parent {
				parent[find(c)] = find(0)
			}
		}
	}

	// One model per joined component, in order of first monitor (an
	// empty deployment is one model with no monitors); each monitor and
	// group goes to its component's model, renumbered locally.
	modelOf := make([]int, len(parent)) // by root component: model index + 1
	local := make([]int, len(s.mons))   // active monitor → index in its model
	var members [][]int
	for a := range s.mons {
		r := find(comp[a])
		if modelOf[r] == 0 {
			members = append(members, nil)
			modelOf[r] = len(members)
		}
		mi := modelOf[r] - 1
		local[a] = len(members[mi])
		members[mi] = append(members[mi], a)
	}
	if len(members) == 0 {
		members = [][]int{nil}
	}
	s.models = make([]*model, len(members))
	for mi := range s.models {
		s.models[mi] = &model{sys: s, cfg: s.cfg, dep: dep}
	}
	for _, g := range groups {
		m := s.models[modelOf[find(comp[g.mons[0]])]-1]
		for i, a := range g.mons {
			g.mons[i] = local[a]
		}
		m.groups = append(m.groups, g)
	}
	props := make([][]string, len(s.models)) // per model: its properties' keys
	s.propOf = make([]*model, len(cfg.Properties))
	for i := range cfg.Properties {
		mi := 0
		if home[i] >= 0 {
			mi = modelOf[find(home[i])] - 1
		}
		s.propOf[i] = s.models[mi]
		props[mi] = append(props[mi], propKeys[i]...)
	}
	declared := spec.RangesOf(dep.Features)
	for mi, m := range s.models {
		m.init(members[mi], props[mi], declared)
	}
	return s
}

// init sets the model up over its monitors (indices into m.sys.mons) and
// the keys its properties read: the key universe, which keys are
// written, and which monitors and groups have a fixed effect.
func (m *model) init(members []int, propKeys []string, declared map[string]*spec.FeatureDecl) {
	m.keyIdx, m.cellKeys, m.index = map[string]int{}, map[*vm.Program][]int{}, map[string]int{}
	m.env = m.cell
	keys := propKeys
	var stores []string
	for _, a := range members {
		c := m.sys.mons[a]
		m.mons = append(m.mons, c)
		keys = append(keys, c.Footprint.Loads...)
		stores = append(stores, c.Footprint.Stores...)
	}
	keys = append(keys, stores...)
	sort.Strings(keys)
	m.keys = slices.Compact(keys)
	m.written = make([]bool, len(m.keys))
	m.sigPos = make([]int, len(m.keys))
	m.declared = make([]*spec.FeatureDecl, len(m.keys))
	for i, k := range m.keys {
		m.keyIdx[k] = i
		m.declared[i] = declared[k]
	}
	for _, k := range stores {
		m.written[m.keyIdx[k]] = true
	}
	pos := 0
	for i := range m.keys {
		m.sigPos[i] = -1
		if m.written[i] {
			m.sigPos[i] = pos
			pos += 4
		}
	}
	// Footprint.Loads is every cell the program LOADs, and the analysis
	// reads its env at those cells only (see Deployment.Analysis).
	m.effects = make([]effect, len(m.mons))
	for i, c := range m.mons {
		m.effects[i].fixed = !slices.ContainsFunc(c.Footprint.Loads, func(k string) bool { return m.written[m.keyIdx[k]] })
	}
	for gi := range m.groups {
		g := &m.groups[gi]
		g.fixed = !slices.ContainsFunc(g.mons, func(mi int) bool { return !m.effects[mi].fixed })
	}
}

// buildGroups derives the transition groups over every active monitor:
// one per hook site, plus the timer coincidence classes over one
// hyperperiod. It records their labels in s.labels.
func (s *system) buildGroups() []group {
	var groups []group
	hookMons := map[string][]int{}
	type timerRef struct {
		mon   int
		timer *spec.TimerTrigger
	}
	var timers []timerRef
	for i, c := range s.mons {
		for _, site := range c.Footprint.Sites {
			hookMons[site] = append(hookMons[site], i)
		}
		for _, tt := range c.Footprint.Timers {
			timers = append(timers, timerRef{mon: i, timer: tt})
		}
	}

	sites := make([]string, 0, len(hookMons))
	for site := range hookMons {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		groups = append(groups, group{label: "hook:" + site, mons: hookMons[site]})
	}
	if len(timers) > 0 {
		specs := make([]*spec.TimerTrigger, len(timers))
		for i, tr := range timers {
			specs[i] = tr.timer
		}
		ticks, hyper, ok := interfere.TimerTicks(specs, s.cfg.MaxTicks)
		s.hyper, s.conserv = hyper, !ok
		if !ok {
			// Conservative fallback (ticks is empty): each timer fires
			// alone, in an unknown order — one singleton transition per
			// timer.
			for _, tr := range timers {
				groups = append(groups, group{
					label: "timer[" + s.mons[tr.mon].Name + "]",
					mons:  []int{tr.mon},
				})
			}
		}
		// Distinct coincidence classes only: two ticks with the same
		// member set induce the same abstract transition.
		seen := map[string]bool{}
		for _, tg := range ticks {
			monSet := map[int]bool{}
			for _, ti := range tg.Members {
				monSet[timers[ti].mon] = true
			}
			mons := make([]int, 0, len(monSet))
			for mi := range monSet {
				mons = append(mons, mi)
			}
			sort.Ints(mons)
			sig := fmt.Sprint(mons)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			names := make([]string, len(mons))
			for i, mi := range mons {
				names[i] = s.mons[mi].Name
			}
			groups = append(groups, group{
				label: "timer[" + strings.Join(names, "+") + "]",
				mons:  mons,
			})
		}
	}
	for _, g := range groups {
		s.labels = append(s.labels, g.label)
	}
	return groups
}

// initState is the deployment's entry state: declared features take
// their certified range, undeclared-but-written keys start at the
// store default 0, and undeclared free keys are unconstrained.
func (m *model) initState() []vm.Interval {
	vals := make([]vm.Interval, len(m.keys))
	for i := range m.keys {
		switch {
		case m.declared[i] != nil:
			vals[i] = vm.RangeInterval(m.declared[i].Lo, m.declared[i].Hi)
		case m.written[i]:
			vals[i] = vm.RangeInterval(0, 0)
		default:
			vals[i] = vm.TopInterval()
		}
	}
	return vals
}

// envFor adapts a state vector to a vm.CellEnv for one program. The
// program's cells are resolved to key indices once per model, and the
// env is the model's one bound m.cell, pointed at p and vals: it is
// valid until the next envFor call, and an analysis request allocates
// no closure.
func (m *model) envFor(p *vm.Program, vals []vm.Interval) vm.CellEnv {
	keys, ok := m.cellKeys[p]
	if !ok {
		keys = make([]int, len(p.Symbols))
		for cell, sym := range p.Symbols {
			ki, ok := m.keyIdx[sym]
			if !ok {
				ki = -1
			}
			keys[cell] = ki
		}
		m.cellKeys[p] = keys
	}
	m.envKeys, m.envVals = keys, vals
	return m.env
}

// cell is the CellEnv envFor hands out: cell's range in the state under
// evaluation.
func (m *model) cell(cell int32) (vm.Interval, bool) {
	keys := m.envKeys
	if cell < 0 || int(cell) >= len(keys) || keys[cell] < 0 {
		return vm.Interval{}, false
	}
	return m.envVals[keys[cell]], true
}

// effectOf appends the writes monitor mi makes when it fires in state
// vals: per stored key, the join of the certified ranges of its
// reachable stores (first-seen order for determinism), strong when the
// monitor provably fires.
func (m *model) effectOf(writes []write, mi int, vals []vm.Interval) []write {
	c := m.mons[mi]
	a, err := m.dep.Analysis(c.Program, m.envFor(c.Program, vals))
	if err != nil {
		a, _ = m.dep.Analysis(c.Program, nil) // fall back to the open-world effect
	}
	if a == nil {
		// No analysis at all: weak-join Top into every key the
		// program can store, the only sound effect left.
		for _, key := range c.Footprint.Stores {
			writes = append(writes, write{mon: mi, key: m.keyIdx[key], val: vm.TopInterval()})
		}
		return writes
	}
	if !a.CanViolate() {
		return writes // rules provably hold in this state: no action path
	}
	must := a.MustViolate()
	first := len(writes)
	for _, sf := range a.Stores {
		ki, ok := m.keyIdx[c.Program.Symbols[sf.Cell]]
		if !ok {
			continue
		}
		if i := slices.IndexFunc(writes[first:], func(w write) bool { return w.key == ki }); i >= 0 {
			writes[first+i].val = writes[first+i].val.Join(sf.Val)
		} else {
			writes = append(writes, write{mon: mi, key: ki, val: sf.Val, must: must})
		}
	}
	return writes
}

// apply computes the successor of a state (its values and signature)
// under a transition group, recording the writes. Monitors in a group
// run sequentially in deployment order, each observing the writes of its
// predecessors — matching the runtime, which serializes same-instant
// firings. A fixed monitor's effect is computed on first use and reused,
// and so is the whole write list of a group of fixed monitors.
//
// The successor and its signature — the tuple of value ids (m.seen)
// over the written keys; every other key is a constant of the model —
// come back in the model's scratch buffers, valid until the next apply.
// The writes are the edge's to keep: a copy, or the fixed group's one
// list, which every edge of the group shares and nothing modifies.
// Only the keys whose value the writes changed are re-widened and
// re-stamped: every other key keeps the source's value, which widenKey
// already gave the id the source's signature holds, so widening it again
// would return that id and change nothing.
func (m *model) apply(g *group, src *node) ([]vm.Interval, []byte, []write) {
	next := append(m.next[:0], src.vals...)
	writes := g.writes
	if g.cached {
		setWrites(next, writes)
	} else {
		writes = m.writes[:0]
		for _, mi := range g.mons {
			first := len(writes)
			if e := &m.effects[mi]; e.cached {
				writes = append(writes, e.writes...)
			} else {
				writes = m.effectOf(writes, mi, next)
				if e.fixed {
					e.writes, e.cached = slices.Clone(writes[first:]), true
				}
			}
			setWrites(next, writes[first:])
		}
		m.writes = writes
		writes = slices.Clone(writes)
		if g.fixed {
			g.writes, g.cached = writes, true
		}
	}
	sig := append(m.sig[:0], src.sig...)
	for _, w := range writes {
		if next[w.key] == src.vals[w.key] {
			continue // unchanged: src.sig already holds its id
		}
		var id int
		next[w.key], id = m.widenKey(w.key, next[w.key])
		binary.LittleEndian.PutUint32(sig[m.sigPos[w.key]:], uint32(id))
	}
	m.next, m.sig = next, sig
	return next, sig, writes
}

// setWrites applies one monitor's writes, or a run of monitors' in
// firing order, to a state vector.
func setWrites(vals []vm.Interval, writes []write) {
	for _, w := range writes {
		if w.must {
			vals[w.key] = w.val // the store provably executes
		} else {
			vals[w.key] = vals[w.key].Join(w.val) // may or may not fire
		}
	}
}

// widenKey accelerates a key that keeps taking new interval values:
// after WidenAfter distinct values, new ones are widened against the
// running join, sending unstable bounds to ±Inf so exploration
// converges on counting loops. It returns the (possibly widened) value
// and its id among the key's distinct values.
func (m *model) widenKey(ki int, nv vm.Interval) (vm.Interval, int) {
	seen := m.seen[ki]
	if id, ok := seen[nv]; ok {
		return nv, id
	}
	if len(seen) < m.cfg.WidenAfter {
		m.accum[ki] = m.accum[ki].Join(nv)
	} else {
		nv = m.accum[ki].Widen(nv)
		m.accum[ki], m.widened[ki] = nv, true
		if id, ok := seen[nv]; ok {
			return nv, id
		}
	}
	id := len(seen)
	seen[nv] = id
	return nv, id
}

// explore runs breadth-first exhaustive exploration from the initial
// state, up to the depth bound and the system's state bound.
func (m *model) explore() {
	s := m.sys
	m.seen = make([]map[vm.Interval]int, len(m.keys))
	m.accum = make([]vm.Interval, len(m.keys))
	m.widened = make([]bool, len(m.keys))
	init := m.initState()
	var sig []byte // the root's, in full
	for ki := range m.keys {
		if !m.written[ki] {
			continue // a constant of the model: never widened, not in signatures
		}
		m.seen[ki] = map[vm.Interval]int{init[ki]: 0}
		m.accum[ki] = init[ki]
		var id int
		init[ki], id = m.widenKey(ki, init[ki])
		sig = binary.LittleEndian.AppendUint32(sig, uint32(id))
	}
	m.nodes = append(m.nodes, node{vals: init, sig: string(sig), parent: -1, viaGroup: -1})
	m.adj = append(m.adj, nil)
	m.index[m.nodes[0].sig] = 0

	for qi := 0; qi < len(m.nodes); qi++ {
		n := m.nodes[qi]
		if n.depth > s.depth {
			s.depth = n.depth
		}
		if n.depth >= m.cfg.MaxDepth {
			s.truncate("depth bound")
			continue
		}
		m.adj[qi] = make([]edge, 0, len(m.groups))
		for gi := range m.groups {
			next, sig, writes := m.apply(&m.groups[gi], &n)
			if to, ok := m.index[string(sig)]; ok {
				s.edges++
				m.adj[qi] = append(m.adj[qi], edge{to: to, group: gi, writes: writes})
				continue
			}
			if s.states >= m.cfg.MaxStates {
				s.truncate("state bound")
				continue
			}
			s.states++
			s.edges++
			to := len(m.nodes)
			key := string(sig)
			m.index[key] = to
			m.nodes = append(m.nodes, node{
				vals:     append([]vm.Interval(nil), next...),
				sig:      key,
				parent:   qi,
				viaGroup: gi,
				depth:    n.depth + 1,
			})
			m.adj = append(m.adj, nil)
			m.adj[qi] = append(m.adj[qi], edge{to: to, group: gi, writes: writes})
		}
	}
}
