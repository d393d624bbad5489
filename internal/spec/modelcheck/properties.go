package modelcheck

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/vm"
)

// Three-valued abstract verdict for a predicate in a state.
const (
	evalUnknown int8 = 0
	evalTrue    int8 = 1
	evalFalse   int8 = -1
)

// witnessPlan is the replay recipe behind one diagnostic: the group
// sequence to drive through the real interpreter on the model it was
// found in, and what to check.
type witnessPlan struct {
	m      *model
	code   string
	prefix []int       // group indexes from the initial state
	cycle  []int       // group indexes closing a cycle (GM002 pumped, GM003)
	prog   *vm.Program // compiled property predicate (GM001, GM002)
	within int         // the K of an eventually property (GM002)
	key    string      // contested feature key (GM003)
}

// compilePred lowers a property predicate to a VM program via a
// synthetic single-rule guardrail. By the compiler's convention the
// program returns 1 when the predicate holds and 0 when it fails, so
// Analysis.CanViolate / MustViolate read as "may be false" / "provably
// false" and Replay.Violated as "concretely false".
func compilePred(pred spec.Expr) (*vm.Program, error) {
	g := &spec.Guardrail{
		Name:     "__property",
		Triggers: []spec.Trigger{&spec.TimerTrigger{Interval: 1}},
		Rules:    []spec.Expr{pred},
		Actions:  []spec.Action{&spec.ReportAction{}},
	}
	c, err := compile.Guardrail(g)
	if err != nil {
		return nil, err
	}
	return c.Program, nil
}

// evalAll computes the three-valued verdict of a compiled predicate in
// every explored state.
func (m *model) evalAll(prog *vm.Program) []int8 {
	out := make([]int8, len(m.nodes))
	for i := range m.nodes {
		a, err := m.dep.Analysis(prog, m.envFor(prog, m.nodes[i].vals))
		if err != nil {
			out[i] = evalUnknown
			continue
		}
		switch {
		case !a.CanViolate():
			out[i] = evalTrue
		case a.MustViolate():
			out[i] = evalFalse
		default:
			out[i] = evalUnknown
		}
	}
	return out
}

// treePath returns the group sequence of the BFS tree path from the
// initial state to node n.
func (m *model) treePath(n int) []int {
	var rev []int
	for n > 0 {
		rev = append(rev, m.nodes[n].viaGroup)
		n = m.nodes[n].parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// renderTrace narrates a group sequence starting from the initial
// state, one line per step, by walking the recorded edges of the
// explored graph: it performs no analysis and cannot touch exploration
// state. Each edge's writes are narrated once (m.narrated), however
// many findings' traces take it. The initial line prints the keys worth
// seeing — the property's (pred may be nil) plus everything written
// along the steps.
func (m *model) renderTrace(groups []int, pred spec.Expr) []string {
	set := map[string]bool{}
	if pred != nil {
		for _, k := range spec.ExprKeys(pred) {
			set[k] = true
		}
	}
	lines := make([]string, 1, len(groups)+2) // lines[0] is the initial line
	at := 0
	for step, gi := range groups {
		ei := slices.IndexFunc(m.adj[at], func(e edge) bool { return e.group == gi })
		e := m.adj[at][ei]
		for _, w := range e.writes {
			set[m.keys[w.key]] = true
		}
		acts, ok := m.narrated[[2]int{at, ei}]
		if !ok {
			parts := make([]string, 0, len(e.writes))
			for _, w := range e.writes {
				mode := " may write "
				if w.must {
					mode = " writes "
				}
				parts = append(parts, m.mons[w.mon].Name+mode+m.keys[w.key]+"="+w.val.String())
			}
			if len(parts) == 0 {
				parts = append(parts, "no monitor acts")
			}
			acts = strings.Join(parts, "; ")
			if m.narrated == nil {
				m.narrated = map[[2]int]string{}
			}
			m.narrated[[2]int{at, ei}] = acts
		}
		lines = append(lines, fmt.Sprintf("step %d [%s]: %s", step+1, m.groups[gi].label, acts))
		at = e.to
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var initParts []string
	for _, k := range keys {
		initParts = append(initParts, fmt.Sprintf("%s=%s", k, m.nodes[0].vals[m.keyIdx[k]]))
	}
	if len(initParts) == 0 {
		initParts = append(initParts, "(store empty)")
	}
	lines[0] = "init: " + strings.Join(initParts, ", ")
	return lines
}

// monitorsOf names the monitors attached to a group sequence, primary
// first (the final step's first actor), deduplicated.
func (m *model) monitorsOf(groups []int) (primary string, others []string) {
	seen := map[string]bool{}
	var all []string
	for i := len(groups) - 1; i >= 0; i-- {
		for _, mi := range m.groups[groups[i]].mons {
			name := m.mons[mi].Name
			if !seen[name] {
				seen[name] = true
				all = append(all, name)
			}
		}
	}
	if len(all) == 0 {
		// No step to blame: the deployment's first monitor, whichever
		// component the finding is in.
		if len(m.sys.mons) > 0 {
			return m.sys.mons[0].Name, nil
		}
		return "(deployment)", nil
	}
	return all[0], all[1:]
}

// checkProperty evaluates one declared property over the explored
// graph. Exploration was exhaustive only when no model hit a bound, so
// a truncation anywhere withholds every proof.
func (m *model) checkProperty(p *spec.PropertyDecl, cert *Certificate) (PropertyResult, *finding) {
	res := PropertyResult{Property: p.String(), Kind: p.Kind.String()}
	prog, err := compilePred(p.Pred)
	if err != nil {
		res.Status = StatusInconclusive
		res.Reason = "predicate could not be compiled: " + err.Error()
		return res, nil
	}
	evals := m.evalAll(prog)

	// Vacuity: a predicate never decidable in any reachable state
	// constrains nothing — the assert is almost certainly miswritten
	// (a typoed key, a range the deployment never enters). Only an
	// exhaustive exploration shows that: a truncated one may have cut
	// off the state that decides it, and its refutations still stand.
	decidable := slices.ContainsFunc(evals, func(e int8) bool { return e != evalUnknown })
	if !decidable && m.sys.truncReason == "" {
		res.Status = StatusInconclusive
		res.Reason = "predicate is undecidable in every reachable abstract state"
		primary, others := m.monitorsOf(nil)
		return res, &finding{diag: interfere.Diagnostic{
			Code: CodeVacuous, Severity: interfere.Warn,
			Pos: p.Pos, Guardrail: primary, Others: others,
			Message: fmt.Sprintf("property %q never evaluates decidably in any of %d reachable state(s); the assertion cannot bite", p.String(), m.sys.states),
		}}
	}

	if p.Kind == spec.PropAlways {
		return m.checkAlways(p, prog, evals, cert, res)
	}
	return m.checkEventually(p, prog, evals, cert, res)
}

// checkAlways: the predicate must provably hold in every reachable
// state. The first state (in BFS order) where it may fail refutes.
func (m *model) checkAlways(p *spec.PropertyDecl, prog *vm.Program, evals []int8, cert *Certificate, res PropertyResult) (PropertyResult, *finding) {
	bad := -1
	for i, e := range evals {
		if e != evalTrue {
			bad = i
			break
		}
	}
	if bad < 0 {
		if m.sys.truncReason != "" {
			res.Status = StatusInconclusive
			res.Reason = "holds in every explored state, but exploration was truncated (" + m.sys.truncReason + ")"
			return res, nil
		}
		res.Status = StatusProved
		res.Certificate = cert
		return res, nil
	}
	res.Status = StatusRefuted
	verdict := "may fail"
	if evals[bad] == evalFalse {
		verdict = "provably fails"
	}
	path := m.treePath(bad)
	res.Reason = fmt.Sprintf("predicate %s in a state reachable in %d step(s)", verdict, len(path))
	primary, others := m.monitorsOf(path)
	trace := m.renderTrace(path, p.Pred)
	trace = append(trace, fmt.Sprintf("state reached: %s %s", spec.ExprString(p.Pred), verdict))
	site := ""
	if len(path) > 0 {
		site = m.groups[path[len(path)-1]].label
	}
	return res, &finding{
		diag: interfere.Diagnostic{
			Code: CodeSafety, Severity: interfere.Warn,
			Pos: p.Pos, Guardrail: primary, Others: others, Site: site,
			Message: fmt.Sprintf("safety property %q %s after %d step(s)", p.String(), verdict, len(path)),
			Trace:   trace,
		},
		plan: &witnessPlan{m: m, code: CodeSafety, prefix: path, prog: prog},
	}
}

// checkEventually: from the initial state, every execution must reach
// a provably-true state within K steps. A K-step path staying in
// not-provably-true states refutes; with fewer than K states explored,
// a shorter path revisiting a state pumps to any K.
func (m *model) checkEventually(p *spec.PropertyDecl, prog *vm.Program, evals []int8, cert *Certificate, res PropertyResult) (PropertyResult, *finding) {
	if evals[0] == evalTrue {
		res.Status = StatusProved
		res.Certificate = cert
		return res, nil
	}
	if len(m.groups) == 0 {
		res.Status = StatusInconclusive
		res.Reason = "deployment has no transitions, and the predicate does not provably hold initially"
		return res, &finding{diag: interfere.Diagnostic{
			Code: CodeLiveness, Severity: interfere.Warn,
			Pos: p.Pos, Guardrail: "(deployment)",
			Message: fmt.Sprintf("liveness property %q cannot progress: the deployment has no hook or timer transitions", p.String()),
		}}
	}

	// Layered BFS over the not-provably-true subgraph: frontier[k] is
	// the set of states reachable from init in exactly k steps along
	// paths whose every state is not provably true.
	limit := p.Within
	if limit > len(m.nodes) {
		limit = len(m.nodes)
	}
	type hop struct{ prev, group int }
	pred := make(map[[2]int]hop)
	frontier := []int{0}
	depth := 0
	for depth < limit && len(frontier) > 0 {
		nextSet := map[int]hop{}
		for _, u := range frontier {
			for _, e := range m.adj[u] {
				if evals[e.to] == evalTrue {
					continue
				}
				if _, ok := nextSet[e.to]; !ok {
					nextSet[e.to] = hop{prev: u, group: e.group}
				}
			}
		}
		if len(nextSet) == 0 {
			frontier = nil
			break
		}
		depth++
		frontier = frontier[:0]
		for v := range nextSet {
			frontier = append(frontier, v)
		}
		sort.Ints(frontier)
		for _, v := range frontier {
			pred[[2]int{depth, v}] = nextSet[v]
		}
	}

	if len(frontier) == 0 {
		// Every not-provably-true path dies before K steps: all
		// executions provably reach the predicate in time.
		if m.sys.truncReason != "" {
			res.Status = StatusInconclusive
			res.Reason = "no refuting path in the explored graph, but exploration was truncated (" + m.sys.truncReason + ")"
			return res, nil
		}
		res.Status = StatusProved
		res.Certificate = cert
		return res, nil
	}

	// A depth-step all-not-true path survives. Reconstruct it.
	end := frontier[0]
	pathNodes := make([]int, depth+1)
	pathGroups := make([]int, depth)
	pathNodes[depth] = end
	for k := depth; k > 0; k-- {
		h := pred[[2]int{k, pathNodes[k]}]
		pathNodes[k-1] = h.prev
		pathGroups[k-1] = h.group
	}

	pumped := depth < p.Within
	var prefix, cycle []int
	if pumped {
		// depth == len(m.nodes) < K: the path visits depth+1 states,
		// so some state repeats — the segment between the repeats is a
		// cycle inside the not-true region, pumpable to any K.
		first := map[int]int{}
		ci, cj := -1, -1
		for i, n := range pathNodes {
			if j, ok := first[n]; ok {
				ci, cj = j, i
				break
			}
			first[n] = i
		}
		if ci < 0 {
			// No repeat (depth < len(nodes) can happen when limit was
			// capped by Within): treat as a plain finite refutation.
			pumped = false
			prefix = pathGroups
		} else {
			prefix = pathGroups[:ci]
			cycle = pathGroups[ci:cj]
		}
	} else {
		prefix = pathGroups
	}

	res.Status = StatusRefuted
	if pumped {
		res.Reason = fmt.Sprintf("a reachable cycle keeps the predicate not provably true for any number of steps (bound %d)", p.Within)
	} else {
		res.Reason = fmt.Sprintf("an execution stays not provably true for %d step(s)", depth)
	}
	all := append(append([]int{}, prefix...), cycle...)
	primary, others := m.monitorsOf(all)
	trace := m.renderTrace(all, p.Pred)
	if pumped {
		trace = append(trace, fmt.Sprintf("steps %d..%d repeat forever: %s never provably holds", len(prefix)+1, len(all), spec.ExprString(p.Pred)))
	} else {
		trace = append(trace, fmt.Sprintf("after %d step(s): %s still not provably true (bound %d)", depth, spec.ExprString(p.Pred), p.Within))
	}
	site := ""
	if len(all) > 0 {
		site = m.groups[all[len(all)-1]].label
	}
	return res, &finding{
		diag: interfere.Diagnostic{
			Code: CodeLiveness, Severity: interfere.Warn,
			Pos: p.Pos, Guardrail: primary, Others: others, Site: site,
			Message: fmt.Sprintf("liveness property %q misses its bound: %s", p.String(), res.Reason),
			Trace:   trace,
		},
		plan: &witnessPlan{m: m, code: CodeLiveness, prefix: prefix, cycle: cycle, prog: prog, within: p.Within},
	}
}

// checkOscillation finds non-convergent SAVE oscillations (GM003): a
// reachable cycle along which two monitors (or one monitor in two
// modes) write provably disjoint values to the same feature key, so
// the key never settles. The same key and writer pair usually recurs in
// many SCCs (one per value of every unrelated feature); it is reported
// once, from the first SCC in sccsOf order.
//
// Per SCC and key, only the first occurrence of each (writer, interval)
// along the intra-SCC edges is scanned — background monitors repeat the
// same write on every edge. That cannot change the first disjoint pair
// (i, j) found: were i a repeat, its earlier occurrence would pair with j
// first; were j a repeat of some k ≠ i, k would pair with i first. k = i
// is possible only for an interval disjoint from itself (∅), so those
// are never collapsed. The findings are appended to found.
func (m *model) checkOscillation(found []finding) []finding {
	sccs := sccsOf(m.adj)
	compOf := make([]int, len(m.adj))
	for ci, comp := range sccs {
		for _, n := range comp {
			compOf[n] = ci
		}
	}
	reported := map[[3]int]bool{} // key, lower and higher writer index
	// This SCC's writes: the distinct (key, interval) classes per writer,
	// and the writes to scan per key.
	classes := make([][]write, len(m.mons))
	byKey := make([][]cycleWrite, len(m.keys))
	var writers, keyOrder []int
	for ci, comp := range sccs {
		for _, mi := range writers {
			classes[mi] = classes[mi][:0]
		}
		for _, ki := range keyOrder {
			byKey[ki] = byKey[ki][:0]
		}
		writers, keyOrder = writers[:0], keyOrder[:0]
		for _, u := range comp {
			for ei, e := range m.adj[u] {
				// Intra-SCC edges; a single node only counts with a self-loop.
				if compOf[e.to] != ci || (len(comp) == 1 && e.to != u) {
					continue
				}
				for wi, w := range e.writes {
					if !w.val.DisjointFrom(w.val) {
						if slices.ContainsFunc(classes[w.mon], func(c write) bool { return c.key == w.key && c.val == w.val }) {
							continue
						}
						if len(classes[w.mon]) == 0 {
							writers = append(writers, w.mon)
						}
						classes[w.mon] = append(classes[w.mon], w)
					}
					if len(byKey[w.key]) == 0 {
						keyOrder = append(keyOrder, w.key)
					}
					byKey[w.key] = append(byKey[w.key], cycleWrite{from: u, edge: ei, write: wi})
				}
			}
		}
		sort.Ints(keyOrder)
		for _, ki := range keyOrder {
			ws := byKey[ki]
			hit := false
			for i := 0; i < len(ws) && !hit; i++ {
				wi := m.writeAt(ws[i])
				for j := i + 1; j < len(ws) && !hit; j++ {
					wj := m.writeAt(ws[j])
					if !wi.val.DisjointFrom(wj.val) {
						continue
					}
					hit = true
					id := [3]int{ki, wi.mon, wj.mon}
					if id[2] < id[1] {
						id[1], id[2] = id[2], id[1]
					}
					if reported[id] {
						continue
					}
					reported[id] = true
					found = append(found, m.oscillationFinding(compOf, ki, ws[i], ws[j]))
				}
			}
		}
	}
	return found
}

// cycleWrite locates one feature-store write on an intra-SCC edge:
// m.adj[from][edge].writes[write].
type cycleWrite struct{ from, edge, write int }

func (m *model) writeAt(cw cycleWrite) write { return m.adj[cw.from][cw.edge].writes[cw.write] }

// oscillationFinding builds the GM003 diagnostic and witness plan for
// one contested key: the cycle visiting both writes, prefixed by the
// tree path to its entry.
func (m *model) oscillationFinding(compOf []int, ki int, a, b cycleWrite) finding {
	ea, eb := m.adj[a.from][a.edge], m.adj[b.from][b.edge]
	wa, wb := ea.writes[a.write], eb.writes[b.write]
	// Cycle: take a's edge, walk inside the SCC from a's target to b's
	// source, take b's edge, walk back to a's source.
	comp := compOf[a.from]
	mid := m.sccPath(ea.to, b.from, compOf, comp)
	back := m.sccPath(eb.to, a.from, compOf, comp)
	cycleGroups := []int{ea.group}
	cycleGroups = append(cycleGroups, mid...)
	cycleGroups = append(cycleGroups, eb.group)
	cycleGroups = append(cycleGroups, back...)
	entry := a.from
	prefix := m.treePath(entry)

	monA, monB := m.mons[wa.mon].Name, m.mons[wb.mon].Name
	key := m.keys[ki]
	msg := fmt.Sprintf("feature %q oscillates on a reachable cycle: %s writes %s while %s writes %s — the value never converges",
		key, monA, wa.val, monB, wb.val)
	var others []string
	if monB != monA {
		others = append(others, monB)
	}
	all := append(append([]int{}, prefix...), cycleGroups...)
	trace := m.renderTrace(all, nil)
	trace = append(trace, fmt.Sprintf("steps %d..%d form a cycle: %s alternates between %s and %s forever",
		len(prefix)+1, len(all), key, wa.val, wb.val))
	var pos spec.Pos
	if src := m.mons[wa.mon].Source; src != nil {
		pos = src.Pos
	}
	return finding{
		diag: interfere.Diagnostic{
			Code: CodeOscillation, Severity: interfere.Warn,
			Pos: pos, Guardrail: monA, Others: others,
			Site:    m.groups[ea.group].label,
			Message: msg,
			Trace:   trace,
		},
		plan: &witnessPlan{m: m, code: CodeOscillation, prefix: prefix, cycle: cycleGroups, key: key},
	}
}

// sccPath returns the group sequence of a shortest path from u to v
// staying inside SCC comp (empty when u == v).
func (m *model) sccPath(u, v int, compOf []int, comp int) []int {
	if u == v {
		return nil
	}
	type hop struct{ prev, group int }
	pred := map[int]hop{}
	visited := map[int]bool{u: true}
	frontier := []int{u}
	for len(frontier) > 0 && !visited[v] {
		var next []int
		for _, x := range frontier {
			for _, e := range m.adj[x] {
				if compOf[e.to] != comp || visited[e.to] {
					continue
				}
				visited[e.to] = true
				pred[e.to] = hop{prev: x, group: e.group}
				next = append(next, e.to)
			}
		}
		frontier = next
	}
	if !visited[v] {
		return nil
	}
	var rev []int
	for n := v; n != u; {
		h := pred[n]
		rev = append(rev, h.group)
		n = h.prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// sccsOf computes strongly connected components of the explored graph,
// returned in a deterministic order with members ascending.
func sccsOf(adj [][]edge) [][]int {
	succ := make([][]int, len(adj))
	for u, es := range adj {
		for _, e := range es {
			succ[u] = append(succ[u], e.to)
		}
	}
	out := interfere.SCCs(succ)
	for _, comp := range out {
		sort.Ints(comp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
