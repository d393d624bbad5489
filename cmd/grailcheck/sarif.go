package main

import (
	"encoding/json"
	"io"
	"sort"

	"guardrails/internal/spec/interfere"
)

// SARIF 2.1.0 emission. The static-analysis results interchange format
// is what CI code-scanning uploads consume; grailcheck maps every
// diagnostic family onto it with the stable GV/GI/GM codes as rule
// ids, so gates and dashboards key on codes, never message text.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           *sarifRegion  `json:"region,omitempty"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// ruleMeta maps every stable diagnostic code to its one-line rule
// description. Codes missing here (future additions) still emit, with
// the code itself as the description.
var ruleMeta = map[string]string{
	"GI001": "contradictory SAVEs of one key by co-firing monitors",
	"GI002": "conflicting policy REPLACEs by co-firing monitors",
	"GI003": "duplicate subject actions by co-firing monitors",
	"GI004": "SAVE→LOAD feedback cycle across monitors",
	"GI005": "hook site certified step budget exceeded",
	"GI006": "guardrail never fires (dead rule)",
	"GI007": "duplicate guardrail names across files",
	"GI008": "program fails verification under deployment-certified input ranges",
	"GM001": "safety property violated in a reachable deployment state",
	"GM002": "liveness property misses its step bound",
	"GM003": "non-convergent SAVE oscillation on a reachable cycle",
	"GM004": "property predicate undecidable in every reachable state",
	"GV001": "rule is always true: guards nothing",
	"GV002": "rule is always false: fires every evaluation",
	"GV003": "two rules cannot hold together",
	"GV011": "LOAD of a *_global key with no registered aggregate",
}

// writeSARIF renders the findings as a SARIF 2.1.0 log. Output is
// deterministic: rules sorted by id, results in report order.
func writeSARIF(w io.Writer, diags []interfere.Diagnostic, fileOf map[string]string) error {
	codes := map[string]bool{}
	for _, d := range diags {
		codes[d.Code] = true
	}
	ids := make([]string, 0, len(codes))
	for c := range codes {
		ids = append(ids, c)
	}
	sort.Strings(ids)
	rules := make([]sarifRule, 0, len(ids))
	for _, id := range ids {
		desc := ruleMeta[id]
		if desc == "" {
			desc = id
		}
		rules = append(rules, sarifRule{ID: id, ShortDescription: sarifMessage{Text: desc}})
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		level := "note"
		if d.Severity == interfere.Warn {
			level = "warning"
		}
		msg := d.Message
		if d.Status != "" {
			msg += " [" + string(d.Status) + "]"
		}
		r := sarifResult{
			RuleID:  d.Code,
			Level:   level,
			Message: sarifMessage{Text: msg},
		}
		if uri := fileOf[d.Guardrail]; uri != "" {
			var region *sarifRegion
			if d.Pos.Line > 0 {
				region = &sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Col}
			}
			r.Locations = []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: uri},
					Region:           region,
				},
			}}
		}
		results = append(results, r)
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "grailcheck", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
