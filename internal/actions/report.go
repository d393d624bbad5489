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

// Append records one violation.
func (l *ReportLog) Append(v Violation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size == len(l.ring) {
		l.ring[l.head] = v
		l.head = (l.head + 1) % len(l.ring)
	} else {
		l.ring[(l.head+l.size)%len(l.ring)] = v
		l.size++
	}
	l.total++
}

// Total returns the count of all violations ever appended.
func (l *ReportLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns up to n of the most recent violations, oldest first.
func (l *ReportLog) Recent(n int) []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.size {
		n = l.size
	}
	out := make([]Violation, 0, n)
	start := l.size - n
	for i := start; i < l.size; i++ {
		out = append(out, l.ring[(l.head+i)%len(l.ring)])
	}
	return out
}
