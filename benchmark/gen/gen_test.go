package gen

import (
	"reflect"
	"strings"
	"testing"
)

// The same seed must give byte-identical inputs, a different seed
// different ones: the benchmark's counts repeat only if its inputs do.
func TestFireInputsAreDeterministic(t *testing.T) {
	for name, build := range map[string]func(seed int64) *FireInputs{
		"bare": func(seed int64) *FireInputs { return Bare(seed, "bare", 500) },
		"wide": func(seed int64) *FireInputs { return Wide(seed, 500, 0.2) },
	} {
		a, b, other := build(7), build(7), build(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a.Values, other.Values) {
			t.Errorf("%s: different seeds gave the same feature schedule", name)
		}
	}
	if Wide(7, 10, 0.2).Source == Wide(8, 10, 0.2).Source {
		t.Error("wide: different seeds gave the same guardrail constants")
	}
}

func TestManifestIsDeterministic(t *testing.T) {
	a, b, other := BuildManifest(3, Ladders), BuildManifest(3, Ladders), BuildManifest(4, Ladders)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different manifests")
	}
	same := true
	for i := range a.Files {
		if a.Files[i].Source != other.Files[i].Source {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave the same manifest text")
	}
	// The planted ground truth is structural: it does not depend on the seed.
	if !reflect.DeepEqual(a.Findings, other.Findings) || !reflect.DeepEqual(a.Proved, other.Proved) {
		t.Error("planted findings changed with the seed")
	}
}

// The manifest's shape is the workload's definition: 200 guardrails, a
// quarter on timers, 20 hook sites, 50 ranged input signals.
func TestManifestShape(t *testing.T) {
	m := BuildManifest(1, Ladders)
	if len(m.Files) != ManifestFiles {
		t.Fatalf("files = %d, want %d", len(m.Files), ManifestFiles)
	}
	var guardrails, timers, signals int
	sites := map[string]bool{}
	for _, f := range m.Files {
		for _, line := range strings.Split(f.Source, "\n") {
			switch {
			case strings.HasPrefix(line, "guardrail "):
				guardrails++
			case strings.Contains(line, "TIMER("):
				timers++
			case strings.HasPrefix(line, "feature sig_"):
				signals++
			}
			if i := strings.Index(line, "FUNCTION("); i >= 0 {
				sites[line[i:strings.Index(line, ")")]] = true
			}
		}
	}
	if guardrails != ManifestMonitors || timers != ManifestMonitors/4 || signals != 50 || len(sites) != 20 {
		t.Errorf("guardrails %d (want %d), timers %d (want %d), signals %d (want 50), sites %d (want 20)",
			guardrails, ManifestMonitors, timers, ManifestMonitors/4, signals, len(sites))
	}
	if len(m.Proved) != 2*Ladders {
		t.Errorf("properties = %d, want %d", len(m.Proved), 2*Ladders)
	}
}

// The wide schedule violates the share of batches it was asked to, and
// only through the one raised feature.
func TestWideScheduleViolationShare(t *testing.T) {
	in := Wide(5, 20000, 0.2)
	violating := 0
	for b := 0; b < in.Batches; b++ {
		raised := 0
		for _, v := range in.Row(b) {
			if v >= 1.9 {
				raised++
			} else if v >= 1.5 {
				t.Fatalf("batch %d: value %v in neither the holding nor the violating band", b, v)
			}
		}
		if in.IsViolating(b) != (raised == 1) {
			t.Fatalf("batch %d: violating=%v but %d raised features", b, in.IsViolating(b), raised)
		}
		if in.IsViolating(b) {
			violating++
		}
	}
	if share := float64(violating) / float64(in.Batches); share < 0.19 || share > 0.21 {
		t.Errorf("violating share = %.3f, want about 0.2", share)
	}
}
