package provenance

import (
	"encoding/json"
	"io"
)

// RecordJSON is the wire form of a Record: inline arrays trimmed to
// their live prefixes, zero-valued optional fields omitted. It is what
// WriteJSON emits, what the ops endpoint's /why serves, and what
// grailctl explain decodes — the schema the operator tooling speaks.
type RecordJSON struct {
	Seq uint64 `json:"seq"`
	At  int64  `json:"at"`
	// Shard is always 0: one runtime records one lane. The field stays
	// so the wire form keeps its shape.
	Shard   int     `json:"shard"`
	Kind    string  `json:"kind"`
	Monitor string  `json:"monitor,omitempty"`
	Gen     int     `json:"gen,omitempty"`
	Site    string  `json:"site,omitempty"`
	Arg     float64 `json:"arg,omitempty"`

	Held         bool   `json:"held"`
	Shadow       bool   `json:"shadow,omitempty"`
	ShadowReason string `json:"shadow_reason,omitempty"`
	Steps        uint64 `json:"steps,omitempty"`

	FaultKind string `json:"fault_kind,omitempty"`

	TrapFree  bool `json:"trap_free,omitempty"`
	DivProven bool `json:"div_proven,omitempty"`
	MaxSteps  int  `json:"max_steps,omitempty"`

	Features          []FeatureReadJSON `json:"features,omitempty"`
	FeaturesTruncated bool              `json:"features_truncated,omitempty"`
	Branches          []BranchJSON      `json:"branches,omitempty"`
	BranchesTruncated bool              `json:"branches_truncated,omitempty"`
	Actions           []ActionJSON      `json:"actions,omitempty"`
	ActionsTruncated  bool              `json:"actions_truncated,omitempty"`

	Stage      string  `json:"stage,omitempty"`
	GateReason string  `json:"gate_reason,omitempty"`
	GateSource string  `json:"gate_source,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	Cand       *Window `json:"cand,omitempty"`
	Inc        *Window `json:"inc,omitempty"`
}

// FeatureReadJSON is the wire form of one feature read.
type FeatureReadJSON struct {
	Key     string  `json:"key"`
	Value   float64 `json:"value"`
	Patched bool    `json:"patched,omitempty"`
	Global  bool    `json:"global,omitempty"`
}

// BranchJSON is the wire form of one branch decision.
type BranchJSON struct {
	PC    int32 `json:"pc"`
	Taken bool  `json:"taken"`
}

// ActionJSON is the wire form of one action outcome.
type ActionJSON struct {
	Name    string `json:"name"`
	Outcome string `json:"outcome"`
}

// View converts a Record to its wire form.
func View(r Record) RecordJSON {
	v := RecordJSON{
		Seq: r.Seq, At: r.At,
		Kind: r.Kind.String(), Monitor: r.Monitor, Gen: r.Gen,
		Site: r.Site, Arg: r.Arg,
		Held: r.Held, Shadow: r.Shadow, ShadowReason: r.ShadowReason,
		Steps:     r.Steps,
		FaultKind: r.FaultKind,
		TrapFree:  r.TrapFree, DivProven: r.DivProven, MaxSteps: r.MaxSteps,
		FeaturesTruncated: r.FeaturesTruncated,
		BranchesTruncated: r.BranchesTruncated,
		ActionsTruncated:  r.ActionsTruncated,
		Stage:             r.Stage, GateReason: r.GateReason,
		GateSource: r.GateSource, Reason: r.Reason,
	}
	for i := 0; i < r.NFeatures; i++ {
		f := r.Features[i]
		v.Features = append(v.Features, FeatureReadJSON{
			Key: f.Key, Value: f.Value, Patched: f.Patched, Global: f.Global,
		})
	}
	for i := 0; i < r.NBranches; i++ {
		b := r.Branches[i]
		v.Branches = append(v.Branches, BranchJSON{PC: b.PC, Taken: b.Taken})
	}
	for i := 0; i < r.NActions; i++ {
		a := r.Actions[i]
		v.Actions = append(v.Actions, ActionJSON{Name: a.Name, Outcome: a.Outcome})
	}
	if r.Kind == KindGate {
		cand, inc := r.Cand, r.Inc
		v.Cand, v.Inc = &cand, &inc
	}
	return v
}

// Views converts records to their wire forms, preserving order.
func Views(recs []Record) []RecordJSON {
	out := make([]RecordJSON, 0, len(recs))
	for _, r := range recs {
		out = append(out, View(r))
	}
	return out
}

// exportJSON is the top-level export object.
type exportJSON struct {
	Total   uint64       `json:"records_total"`
	Records []RecordJSON `json:"records"`
}

// WriteJSON writes the retained records as an indented JSON object.
// Output is deterministic for a deterministic record stream: a seeded
// run produces byte-identical bytes across runs. A nil recorder writes an empty
// (still valid) export.
func (r *Recorder) WriteJSON(w io.Writer) error {
	export := exportJSON{Total: r.Total(), Records: Views(r.Records())}
	if export.Records == nil {
		export.Records = []RecordJSON{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(export)
}
