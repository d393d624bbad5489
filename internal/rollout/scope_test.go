package rollout

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/spec/deploy"
	"guardrails/internal/spec/interfere"
)

// TestScopeCoversRemoval: y is coupled only to x, through the key x and
// z both write, and x is removed. Without x, k's certified range is the
// one z writes, and y's rule can no longer be violated (GI006). The
// scope must reach y and z, or the scoped check admits as clean what a
// full check flags.
func TestScopeCoversRemoval(t *testing.T) {
	const x = `guardrail x { trigger: { FUNCTION(io_done) }, rule: { LOAD(q) <= 1 }, action: { SAVE(k, 7) } }`
	const zy = `
guardrail z { trigger: { FUNCTION(net_rx) }, rule: { LOAD(q) <= 1 }, action: { SAVE(k, 0.5) } }
guardrail y { trigger: { FUNCTION(sched_tick) }, rule: { LOAD(k) <= 1 }, action: { REPORT(LOAD(k)) } }`
	old, new := mustCompile(t, x+zy), mustCompile(t, zy)
	if v := fullCheck(old); !v.Clean() {
		t.Fatalf("old generation not clean: %v", v.Diagnostics())
	}
	full := fullCheck(new)
	if full.Clean() {
		t.Fatal("new generation clean; the repro no longer shows a removal's finding")
	}
	scoped, names := CheckScoped(Compare(old, new), &deploy.Deployment{Monitors: new})
	if strings.Join(names, " ") != "y z" {
		t.Errorf("scope = %v, want [y z]", names)
	}
	if scoped.Clean() {
		t.Errorf("scoped check clean, full check finds %v", full.Diagnostics())
	}
}

func fullCheck(cs []*compile.Compiled) *deploy.Verdict {
	return (&deploy.Deployment{Monitors: cs}).Check(deploy.Checks{})
}

// FuzzScopedEqualsFull: a scoped re-admission finds every warning a full
// check of the new generation finds and a full check of the old one
// does not. The input encodes a deployment of 3–8 guardrails over four
// keys and three hook sites (plus timers), and one edit of it: add,
// remove, retune or modify a guardrail. Bytes past the end read as 0.
func FuzzScopedEqualsFull(f *testing.F) {
	// The removal of TestScopeCoversRemoval: x = io_done, q <= 1,
	// SAVE(k, 7); z = net_rx, q <= 1, SAVE(k, 0.5); y = sched_tick,
	// k <= 1, REPORT(LOAD(k)); remove x.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 1, 1, 0, 2, 0, 1, 2, 0, 0, 2, 4, 0, 1, 0})
	f.Add([]byte{2, 0, 0, 0, 2, 0, 3, 0, 0, 0, 2, 0, 1, 1, 1, 1, 1, 4, 0, 3, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{5, 3, 1, 0, 2, 1, 3, 3, 2, 1, 3, 2, 0, 0, 3, 1, 0, 6, 1, 2, 1, 1, 1, 1, 2, 5, 0, 2, 2, 0, 2, 5, 2, 2, 3, 3, 3, 3, 2, 3, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		oldSrc, newSrc := scopeFuzzGenerations(data)
		old, err := compile.Source(oldSrc)
		if err != nil {
			t.Fatalf("old generation: %v\n%s", err, oldSrc)
		}
		new, err := compile.Source(newSrc)
		if err != nil {
			t.Fatalf("new generation: %v\n%s", err, newSrc)
		}
		before := map[string]bool{}
		for _, d := range fullCheck(old).Diagnostics() {
			if d.Severity == interfere.Warn {
				before[warningKey(d)] = true
			}
		}
		scoped, names := CheckScoped(Compare(old, new), &deploy.Deployment{Monitors: new})
		got := map[string]bool{}
		for _, d := range scoped.Diagnostics() {
			got[warningKey(d)] = true
		}
		for _, d := range fullCheck(new).Diagnostics() {
			if k := warningKey(d); d.Severity == interfere.Warn && !before[k] && !got[k] {
				t.Fatalf("new warning missing from the scoped check (scope %v): %s\nold:\n%s\nnew:\n%s", names, d, oldSrc, newSrc)
			}
		}
	})
}

// warningKey identifies a finding across two checks of different
// monitor sets.
func warningKey(d interfere.Diagnostic) string {
	others := append([]string(nil), d.Others...)
	sort.Strings(others)
	return strings.Join([]string{d.Code, d.Guardrail, d.Site, strings.Join(others, ","), d.Message}, "|")
}

// scopeFuzzGenerations decodes a fuzz input into two generations of
// source. Byte 0 sets the guardrail count (3–8); six bytes describe each
// guardrail (see scopeFuzzGuardrail); the rest is the edit: its kind,
// its target, and up to six bytes for the guardrail it adds or the
// modification it makes.
func scopeFuzzGenerations(data []byte) (old, new string) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 3 + at(0)%6
	gs := make([][6]int, n)
	for i := range gs {
		for j := range gs[i] {
			gs[i][j] = at(1 + 6*i + j)
		}
	}
	e := 1 + 6*n
	var spec [6]int
	for j := range spec {
		spec[j] = at(e + 2 + j)
	}
	var oldB, newB strings.Builder
	target := at(e+1) % n
	for i, g := range gs {
		name := fmt.Sprintf("g%d", i)
		oldB.WriteString(scopeFuzzGuardrail(name, g))
		if i != target {
			newB.WriteString(scopeFuzzGuardrail(name, g))
			continue
		}
		switch at(e) % 4 {
		case 0: // add
			newB.WriteString(scopeFuzzGuardrail(name, g))
			newB.WriteString(scopeFuzzGuardrail("added", spec))
		case 1: // remove
		case 2: // retune: new constants, same shape
			g[3], g[5] = spec[0], spec[1]
			newB.WriteString(scopeFuzzGuardrail(name, g))
		case 3: // modify
			newB.WriteString(scopeFuzzGuardrail(name, spec))
		}
	}
	return oldB.String(), newB.String()
}

var (
	scopeFuzzSites  = []string{"io_done", "net_rx", "sched_tick"}
	scopeFuzzKeys   = []string{"k", "q", "r", "s"}
	scopeFuzzValues = []string{"0", "0.5", "1", "7"}
)

// scopeFuzzGuardrail renders one guardrail from six bytes: the trigger
// (one of three sites, or a timer), the rule's key, comparison and
// threshold, and the action (SAVE of a value, or REPORT of a key).
func scopeFuzzGuardrail(name string, b [6]int) string {
	trigger := "TIMER(0, 1e9)"
	if b[0]%4 < 3 {
		trigger = "FUNCTION(" + scopeFuzzSites[b[0]%4] + ")"
	}
	cmp := []string{"<=", ">"}[b[2]%2]
	rule := fmt.Sprintf("LOAD(%s) %s %s", scopeFuzzKeys[b[1]%4], cmp, scopeFuzzValues[b[3]%4])
	key := scopeFuzzKeys[b[4]%4]
	action := fmt.Sprintf("SAVE(%s, %s)", key, scopeFuzzValues[b[5]%4])
	if b[4]%8 >= 4 {
		action = fmt.Sprintf("REPORT(LOAD(%s))", key)
	}
	return fmt.Sprintf("guardrail %s { trigger: { %s }, rule: { %s }, action: { %s } }\n", name, trigger, rule, action)
}
