package deploy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Manifest is the deployment manifest file format: the spec files and
// the deployment-level declarations in one place.
//
//	{
//	  "specs": ["latency.grail", "failover.grail"],
//	  "hook_budget": 200,
//	  "hook_budgets": {"io_uring_submit": 64},
//	  "shards": 4,
//	  "aggregates": ["err_rate"],
//	  "properties": ["always LOAD(mode) <= 1"],
//	  "shadow": ["candidate-monitor"]
//	}
type Manifest struct {
	// Specs are the spec file paths, relative to the manifest's
	// directory unless absolute (ReadManifest resolves them).
	Specs []string `json:"specs"`
	// HookBudget, HookBudgets, Shards, Aggregates and Shadow set the
	// Deployment fields of the same names; a zero HookBudget or Shards
	// leaves the caller's default in place.
	HookBudget  int            `json:"hook_budget"`
	HookBudgets map[string]int `json:"hook_budgets"`
	Shards      int            `json:"shards"`
	Aggregates  []string       `json:"aggregates"`
	// Properties are temporal properties over the whole deployment
	// ("always <pred>", "eventually <pred> within K"), declared ahead of
	// the spec files' own assert blocks.
	Properties []string `json:"properties"`
	Shadow     []string `json:"shadow"`
}

// DecodeManifest decodes manifest JSON. Unknown keys are errors: a
// misspelt "properties" or "hook_budget" must not check vacuously.
func DecodeManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the manifest object")
	}
	return m, nil
}

// ReadManifest reads and decodes a manifest file, resolving its spec
// paths against the manifest's directory.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i, p := range m.Specs {
		if !filepath.IsAbs(p) {
			m.Specs[i] = filepath.Join(filepath.Dir(path), p)
		}
	}
	return m, nil
}

// Apply sets the manifest's declarations on a deployment loaded from
// its specs.
func (m *Manifest) Apply(d *Deployment) error {
	if m.HookBudget != 0 {
		d.HookBudget = m.HookBudget
	}
	d.HookBudgets = m.HookBudgets
	if m.Shards != 0 {
		d.Shards = m.Shards
	}
	d.Aggregates = m.Aggregates
	d.Shadow = m.Shadow
	props, err := ParseProperties(m.Properties)
	if err != nil {
		return err
	}
	d.Properties = append(props, d.Properties...)
	return nil
}
