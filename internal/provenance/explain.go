package provenance

import (
	"fmt"
	"strings"
	"time"
)

// Explain renders decision records as a human-readable causal chain,
// oldest first — the text behind `grailctl explain`. It consumes the
// wire form so the CLI can render exactly what a live /why endpoint
// served.
func Explain(monitor string, recs []RecordJSON) string {
	var b strings.Builder
	if len(recs) == 0 {
		fmt.Fprintf(&b, "%s: no decision records retained\n", monitor)
		fmt.Fprintf(&b, "(not loaded, provenance not attached, or nothing sampled yet)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%s — last %d decision(s):\n", monitor, len(recs))
	for _, r := range recs {
		b.WriteString(explainOne(r))
	}
	return b.String()
}

func explainOne(r RecordJSON) string {
	var b strings.Builder
	at := time.Duration(r.At) * time.Nanosecond
	head := strings.ToUpper(r.Kind)
	fmt.Fprintf(&b, "\n[%s] %s", at, head)
	if r.Gen > 0 {
		fmt.Fprintf(&b, "  %s@v%d", r.Monitor, r.Gen)
	} else if r.Monitor != "" {
		fmt.Fprintf(&b, "  %s", r.Monitor)
	}
	fmt.Fprintf(&b, "  (shard %d)\n", r.Shard)

	switch r.Kind {
	case "gate":
		verdict := "passed"
		if r.GateReason != "" {
			verdict = "FAILED: " + r.GateReason
		}
		fmt.Fprintf(&b, "  %s gate %s (window scored from %s)\n", r.Stage, verdict, r.GateSource)
		if r.Cand != nil {
			b.WriteString("  candidate: " + windowLine(*r.Cand))
		}
		if r.Inc != nil {
			b.WriteString("  incumbent: " + windowLine(*r.Inc))
		}
		return b.String()
	case "rollback":
		fmt.Fprintf(&b, "  rolled back: %s\n", r.Reason)
		return b.String()
	}

	// Evaluation-shaped records (eval / violation / fault).
	if r.Site != "" {
		fmt.Fprintf(&b, "  trigger: %s (arg %g)\n", r.Site, r.Arg)
	} else if r.Arg != 0 {
		fmt.Fprintf(&b, "  trigger: arg %g\n", r.Arg)
	}
	if len(r.Features) > 0 {
		b.WriteString("  loaded:")
		for _, f := range r.Features {
			fmt.Fprintf(&b, " %s=%g", f.Key, f.Value)
			var marks []string
			if f.Patched {
				marks = append(marks, "patched")
			}
			if f.Global {
				marks = append(marks, "global")
			}
			if len(marks) > 0 {
				fmt.Fprintf(&b, " (%s)", strings.Join(marks, ", "))
			}
		}
		if r.FeaturesTruncated {
			b.WriteString(" …")
		}
		b.WriteString("\n")
	}
	if len(r.Branches) > 0 {
		b.WriteString("  path:")
		for _, br := range r.Branches {
			arm := "fall"
			if br.Taken {
				arm = "jump"
			}
			fmt.Fprintf(&b, " pc%d:%s", br.PC, arm)
		}
		if r.BranchesTruncated {
			b.WriteString(" …")
		}
		b.WriteString("\n")
	}
	proof := "guarded"
	if r.TrapFree {
		proof = "proven trap-free"
		if r.DivProven {
			proof += ", div-proven"
		}
		if r.MaxSteps > 0 {
			proof += fmt.Sprintf(", ≤%d steps certified", r.MaxSteps)
		}
	}
	fmt.Fprintf(&b, "  vm: %d steps (%s)\n", r.Steps, proof)
	if r.Kind == "fault" {
		fmt.Fprintf(&b, "  fault: %s\n", r.FaultKind)
	} else {
		verdict := "held"
		if !r.Held {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(&b, "  rule: %s\n", verdict)
	}
	if r.Shadow {
		fmt.Fprintf(&b, "  actions suppressed (%s)\n", r.ShadowReason)
	}
	for _, a := range r.Actions {
		fmt.Fprintf(&b, "  action %s: %s\n", a.Name, a.Outcome)
	}
	if r.ActionsTruncated {
		b.WriteString("  action … (truncated)\n")
	}
	return b.String()
}

func windowLine(w Window) string {
	return fmt.Sprintf("evals=%d violations=%d faults=%d dispatches=%d failures=%d steps=%g\n",
		w.Evals, w.Violations, w.Faults, w.Dispatches, w.Failures, w.Steps)
}
