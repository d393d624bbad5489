package actions

import "sync/atomic"

// DeadLetter counts actions that failed permanently — the terminal
// stop on the runtime's degradation ladder for a single action. What
// failed is reported in the violation log, the telemetry flight ring
// and the decision records as it happens; this is the running total an
// experiment or benchmark checks at the end. Safe for concurrent use.
type DeadLetter struct {
	total atomic.Uint64
}

// Add counts one permanently failed action.
func (d *DeadLetter) Add() { d.total.Add(1) }

// Total returns how many actions have ever been dead-lettered.
func (d *DeadLetter) Total() uint64 { return d.total.Load() }
