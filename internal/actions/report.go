// Package actions implements the four guardrail corrective actions of
// the paper's taxonomy (Figure 1, right table):
//
//	A1 REPORT       — structured violation logging to a bounded ring
//	A2 REPLACE      — atomic swap of a misbehaving policy for a fallback
//	A3 RETRAIN      — asynchronous retraining queue with token-bucket
//	                  abuse protection (§3.2: retraining "must be
//	                  protected to prevent abuse from malicious processes")
//	A4 DEPRIORITIZE — demote or kill task groups to release resources
//
// The monitor runtime (package monitor) dispatches compiled guardrail
// actions to these implementations. A4 has none: no binary owns a task
// group, so the runtime reports every DEPRIORITIZE dispatch as naming
// an unknown group.
package actions

import (
	"fmt"
	"strings"
	"sync"

	"guardrails/internal/kernel"
)

// Violation is one recorded property violation (A1).
type Violation struct {
	// Time is the simulated kernel time of the violation.
	Time kernel.Time
	// Guardrail names the violated guardrail.
	Guardrail string
	// Values carries the REPORT argument values (up to four).
	Values []float64
	// Note is optional free-form context from the reporter.
	Note string
}

// String renders the violation for logs.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] guardrail %q violated", v.Time, v.Guardrail)
	if len(v.Values) > 0 {
		fmt.Fprintf(&b, " values=%v", v.Values)
	}
	if v.Note != "" {
		fmt.Fprintf(&b, " note=%q", v.Note)
	}
	return b.String()
}

// ReportLog is a bounded ring buffer of violations. Old entries are
// overwritten once capacity is reached; Total always counts every
// appended violation. Safe for concurrent use.
//
// Each slot keeps its Values backing array across overwrites: the
// first violation with values written into a slot allocates it, and
// every later one copies into it, so a steady stream of reports
// allocates nothing once the ring has wrapped. Nothing outside the log
// sees that storage: writers' slices are copied in, and Recent copies
// out.
type ReportLog struct {
	mu    sync.Mutex
	ring  []Violation
	head  int
	size  int
	total uint64
}

// NewReportLog returns a log retaining the most recent capacity entries.
func NewReportLog(capacity int) *ReportLog {
	if capacity <= 0 {
		panic("actions: report log capacity must be positive")
	}
	return &ReportLog{ring: make([]Violation, capacity)}
}

// Append records one violation. v.Values is copied: the caller may
// reuse its slice.
func (l *ReportLog) Append(v Violation) { l.put(v.Time, v.Guardrail, v.Note, v.Values) }

// Report records one REPORT: guardrail violated at t, carrying vals.
// vals is copied and not retained, so a caller may pass storage it
// reuses (a VM's argument registers) without it escaping.
func (l *ReportLog) Report(t kernel.Time, guardrail string, vals []float64) {
	l.put(t, guardrail, "", vals)
}

// put writes the next slot, overwriting the oldest once full. The
// ring only ever advances by one, so it wraps by comparison, not by a
// division.
func (l *ReportLog) put(t kernel.Time, guardrail, note string, vals []float64) {
	l.mu.Lock()
	i := l.head + l.size
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	if l.size < len(l.ring) {
		l.size++
	} else if l.head++; l.head == len(l.ring) {
		l.head = 0
	}
	// Field by field: a composite literal is built on the stack first
	// and copied, which costs more than the report's other writes.
	s := &l.ring[i]
	s.Time, s.Guardrail, s.Note = t, guardrail, note
	s.Values = append(s.Values[:0], vals...)
	l.total++
	l.mu.Unlock()
}

// Total returns the count of all violations ever appended.
func (l *ReportLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns up to n of the most recent violations, oldest first.
// Each carries its own copy of its values (nil when it has none), so a
// later write into the ring changes nothing a caller holds.
func (l *ReportLog) Recent(n int) []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.size {
		n = l.size
	}
	out := make([]Violation, 0, n)
	start := l.size - n
	for i := start; i < l.size; i++ {
		v := l.ring[(l.head+i)%len(l.ring)]
		v.Values = append([]float64(nil), v.Values...)
		out = append(out, v)
	}
	return out
}
