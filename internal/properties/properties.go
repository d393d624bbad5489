// Package properties implements the part of the paper's property
// taxonomy (Figure 1, left table) that is shared between substrates as
// reusable monitors. Each monitor observes a learned policy's inputs,
// outputs, or the resulting system behaviour and publishes a scalar
// signal to the feature store; two also emit the guardrail specification
// text that checks the signal, through the same compiler pipeline as
// hand-written guardrails:
//
//	P1 DriftDetector   — in-distribution inputs (PSI over windows)
//	P4 RegretMonitor   — decision quality vs. a baseline
//	P5 OverheadMonitor — inference cost vs. benefit
//
// P2, P3 and P6 have no monitor here: netcc, memtier and sched publish
// their decision-CoV, out-of-bounds-rate and fairness/starvation signals
// inline, where the decision is made.
package properties

import (
	"fmt"
	"strings"
)

// BuildSpec assembles guardrail specification source from parts. Rules
// are conjoined; actions run in order on violation.
func BuildSpec(name string, triggers, rules, actions []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "guardrail %s {\n  trigger: {\n", name)
	for _, t := range triggers {
		fmt.Fprintf(&b, "    %s\n", t)
	}
	b.WriteString("  },\n  rule: {\n")
	for i, r := range rules {
		sep := ""
		if i < len(rules)-1 {
			sep = ";"
		}
		fmt.Fprintf(&b, "    %s%s\n", r, sep)
	}
	b.WriteString("  },\n  action: {\n")
	for _, a := range actions {
		fmt.Fprintf(&b, "    %s\n", a)
	}
	b.WriteString("  }\n}\n")
	return b.String()
}

// TimerTrigger renders a TIMER trigger with the given interval in
// nanoseconds.
func TimerTrigger(intervalNS float64) string {
	return fmt.Sprintf("TIMER(start_time, %g)", intervalNS)
}
