package interfere

import (
	"sort"

	"guardrails/internal/compile"
)

// FiringGroup is a set of monitors that can run at one instant: the
// monitors attached to one hook site, or the timer-driven monitors of
// one tick class (timers that tick together).
type FiringGroup struct {
	// Site is the hook site; "" for a tick class.
	Site string
	// Monitors indexes Deployment.Monitors, ascending.
	Monitors []int
}

// coupling is how a deployment's monitors can affect one another, read
// off their compile.Footprints alone. It is the one statement of which
// monitors can fire together, which the interference checks, the model
// checker (Schedule) and the rollout scope (Components) all read:
//
//   - groups, the schedule: one FiringGroup per hook site, sorted, then
//     one per distinct timer tick class, in order of first tick. When the
//     tick schedule cannot be enumerated (exact false: non-integer
//     parameters, int64 overflow, more than maxTicks ticks), each TIMER
//     trigger is a group of its own instead.
//   - cofire, the groups of monitors that can run at one instant: groups
//     itself when exact; otherwise the hook groups, then one group per
//     pair of timer monitors whose timers may coincide
//     (timerPairCoincides).
//   - of[i], the indexes into cofire of monitor i's groups, ascending.
//   - readers, per key some monitor SAVEs, the monitors that LOAD it.
//   - comps, the connected components of "shares a cofire group or a
//     written key with" (a key's SAVE writers and LOAD readers are one
//     component): monitors of different components never run in one
//     transition and never read each other's writes.
type coupling struct {
	mons    []*compile.Compiled // the Monitors slice it was computed from
	groups  []FiringGroup
	hyper   int64
	exact   bool
	cofire  []FiringGroup
	of      [][]int
	readers map[string][]int // written key → monitors that LOAD it, ascending
	comps   [][]int
}

// Components partitions Monitors (by index) into the connected
// components of "fires with, or shares a written key with": two
// monitors are joined when they attach to one hook site, when their
// timers can tick at one instant, or when one SAVEs a key the other
// SAVEs or LOADs. Each component lists its monitors ascending, and the
// components are in order of their first monitor. A nil monitor is a
// component alone. The result is computed once per Monitors slice; do
// not modify it.
func (d *Deployment) Components() [][]int { return d.coupling().comps }

// Schedule returns the deployment's firing groups in schedule order: one
// per hook site, sorted by site, then one per distinct set of monitors
// whose timers tick at one instant, in order of first tick, with the
// timers' hyperperiod. exact is false, and hyper 0, when the tick
// schedule cannot be enumerated (non-integer parameters, int64
// overflow, more than 4 096 ticks in the window); each TIMER trigger is
// then a group of its own. The result is computed once per Monitors
// slice; do not modify it.
func (d *Deployment) Schedule() (groups []FiringGroup, hyper int64, exact bool) {
	c := d.coupling()
	return c.groups, c.hyper, c.exact
}

// coupling returns d's coupling, computing it when Monitors is not the
// slice it was computed from.
func (d *Deployment) coupling() *coupling {
	if c := d.coupled; c != nil && len(c.mons) == len(d.Monitors) && (len(c.mons) == 0 || &c.mons[0] == &d.Monitors[0]) {
		return c
	}
	c := &coupling{mons: d.Monitors, readers: map[string][]int{}}
	sites := map[string][]int{}
	writers := map[string][]int{}
	var timers []monTimer
	for i, m := range d.Monitors {
		if m == nil {
			continue
		}
		for _, s := range m.Footprint.Sites {
			sites[s] = append(sites[s], i)
		}
		for _, t := range m.Footprint.Timers {
			timers = append(timers, monTimer{i, t})
		}
		for _, k := range m.Footprint.Stores {
			writers[k] = append(writers[k], i)
		}
	}
	for i, m := range d.Monitors {
		if m == nil {
			continue
		}
		for _, k := range m.Footprint.Loads {
			if _, ok := writers[k]; ok {
				c.readers[k] = append(c.readers[k], i)
			}
		}
	}

	names := make([]string, 0, len(sites))
	for s := range sites {
		names = append(names, s)
	}
	sort.Strings(names)
	c.groups = make([]FiringGroup, len(names), len(names)+len(timers))
	for gi, s := range names {
		c.groups[gi] = FiringGroup{Site: s, Monitors: sites[s]}
	}
	classes, hyper, exact := tickClasses(timers)
	c.hyper, c.exact = hyper, exact
	for _, members := range classes {
		c.groups = append(c.groups, FiringGroup{Monitors: members})
	}
	c.cofire = c.groups
	if !exact {
		c.cofire = append(c.groups[:len(names):len(names)], coincidingPairs(timers)...)
		for _, t := range timers {
			c.groups = append(c.groups, FiringGroup{Monitors: []int{t.mon}})
		}
	}

	// of, in one backing array: monitor i's groups, ascending.
	counts := make([]int, len(d.Monitors))
	total := 0
	for _, g := range c.cofire {
		for _, i := range g.Monitors {
			counts[i]++
		}
		total += len(g.Monitors)
	}
	backing := make([]int, total)
	c.of = make([][]int, len(d.Monitors))
	for i, n := range counts {
		c.of[i], backing = backing[:0:n], backing[n:]
	}
	for gi, g := range c.cofire {
		for _, i := range g.Monitors {
			c.of[i] = append(c.of[i], gi)
		}
	}

	parent := make([]int, len(d.Monitors))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(b)] = find(a) }
	join := func(first int, members []int) {
		for _, j := range members {
			union(first, j)
		}
	}
	for _, g := range c.cofire {
		join(g.Monitors[0], g.Monitors)
	}
	for k, ws := range writers {
		join(ws[0], ws)
		join(ws[0], c.readers[k])
	}

	compOf := make([]int, len(parent)) // by root: component index + 1
	for i := range parent {
		r := find(i)
		if compOf[r] == 0 {
			c.comps = append(c.comps, nil)
			compOf[r] = len(c.comps)
		}
		c.comps[compOf[r]-1] = append(c.comps[compOf[r]-1], i)
	}
	d.coupled = c
	return c
}

// coincidingPairs is the conservative co-firing relation for a tick
// schedule that cannot be enumerated: one group per pair of distinct
// monitors some timers of which may tick at one instant.
func coincidingPairs(timers []monTimer) []FiringGroup {
	var pairs []FiringGroup
	seen := map[[2]int]bool{}
	for x, a := range timers {
		for _, b := range timers[x+1:] { // timers ascend by monitor: a.mon <= b.mon
			p := [2]int{a.mon, b.mon}
			if a.mon == b.mon || seen[p] || !timerPairCoincides(a.t, b.t) {
				continue
			}
			seen[p] = true
			pairs = append(pairs, FiringGroup{Monitors: p[:]})
		}
	}
	return pairs
}

// firstSharedGroup names the first group in which two monitors that
// share one fire at the same instant: the first hook site both attach
// to, in sorted order, else "TIMER"; a pair's conflicts are reported
// once, against it. It runs for every candidate pair, so it allocates
// nothing.
func (c *coupling) firstSharedGroup(i, j int) string {
	as, bs := c.of[i], c.of[j] // both ascending
	for x, y := 0, 0; x < len(as) && y < len(bs); {
		switch {
		case as[x] == bs[y]:
			if s := c.cofire[as[x]].Site; s != "" {
				return s
			}
			return "TIMER"
		case as[x] < bs[y]:
			x++
		default:
			y++
		}
	}
	return ""
}
