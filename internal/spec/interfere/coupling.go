package interfere

import "guardrails/internal/compile"

// coupling is how a deployment's monitors can affect one another, read
// off their compile.Footprints alone: the firing groups (the monitors
// of each hook site, and every timer-bearing monitor) and, per key some
// monitor SAVEs, the monitors that LOAD it. comps are the connected components of "fires
// with, or shares a written key with" (a key's SAVE writers and LOAD
// readers are one component): monitors of different components never
// run in one transition and never read each other's writes.
type coupling struct {
	mons    []*compile.Compiled // the Monitors slice it was computed from
	sites   map[string][]int    // hook site → its monitors, ascending
	timers  []int               // monitors with a TIMER trigger, ascending
	readers map[string][]int    // written key → monitors that LOAD it, ascending
	comps   [][]int
}

// Components partitions Monitors (by index) into the connected
// components of "fires with, or shares a written key with": two
// monitors are joined when they attach to one hook site, when both
// have timers, or when one SAVEs a key the other SAVEs or LOADs. Each
// component lists its monitors ascending, and the components are in
// order of their first monitor. A nil monitor is a component alone.
// The result is computed once per Monitors slice; do not modify it.
func (d *Deployment) Components() [][]int { return d.coupling().comps }

// coupling returns d's coupling, computing it when Monitors is not the
// slice it was computed from.
func (d *Deployment) coupling() *coupling {
	if c := d.coupled; c != nil && len(c.mons) == len(d.Monitors) && (len(c.mons) == 0 || &c.mons[0] == &d.Monitors[0]) {
		return c
	}
	c := &coupling{mons: d.Monitors, sites: map[string][]int{}, readers: map[string][]int{}}
	writers := map[string][]int{}
	for i, m := range d.Monitors {
		if m == nil {
			continue
		}
		for _, s := range m.Footprint.Sites {
			c.sites[s] = append(c.sites[s], i)
		}
		if len(m.Footprint.Timers) > 0 {
			c.timers = append(c.timers, i)
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
	for _, members := range c.sites {
		join(members[0], members)
	}
	if len(c.timers) > 0 {
		join(c.timers[0], c.timers)
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
