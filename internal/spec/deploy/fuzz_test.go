package deploy

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"guardrails/internal/spec"
)

// FuzzManifest: the manifest decoder never panics, never accepts a key
// it does not know, and a manifest it accepts either loads and checks
// or fails on one of its properties with a positioned error. Spec paths
// resolve against an in-memory copy of grailcheck's testdata, so a
// mutated path cannot make the target read the file system.
func FuzzManifest(f *testing.F) {
	dir := filepath.Join("..", "..", "..", "cmd", "grailcheck", "testdata")
	specs := map[string]string{}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.grail"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		specs[filepath.Base(path)] = string(data)
	}
	seeds, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(specs) == 0 || len(seeds) == 0 {
		f.Fatal("no seed manifests or specs found")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"specs": ["temporal_osc.grail"], "propertes": ["always LOAD(mode) <= 0"], "hook_bugdet": 3}`))
	f.Add([]byte(`{"specs": ["temporal_osc.grail"], "properties": ["sometimes LOAD(mode) <= 0"], "shadow": ["osc-up"]}`))

	known := []string{"specs", "hook_budget", "hook_budgets", "shards", "aggregates", "properties", "shadow"}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatalf("accepted manifest is not a JSON object: %v", err)
		}
		for key := range keys {
			ok := false
			for _, k := range known {
				ok = ok || strings.EqualFold(key, k)
			}
			if !ok {
				t.Fatalf("accepted unknown key %q", key)
			}
		}

		var srcs []Source
		for _, name := range m.Specs {
			text, ok := specs[name]
			if !ok {
				return
			}
			srcs = append(srcs, Source{Name: name, Text: text})
		}
		d, err := Load(srcs...)
		if err != nil {
			return // the same spec listed twice in one file set is fine; a broken one is not in testdata
		}
		if err := m.Apply(d); err != nil {
			var pos *spec.Error
			if !errors.As(err, &pos) {
				t.Fatalf("manifest rejected without a position: %v", err)
			}
			return
		}
		d.Check(Checks{})
	})
}
