package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"guardrails/internal/stats"
)

// Snapshot is a point-in-time JSON-marshalable export of a sink:
// counter values plus histogram summaries. Two snapshots of the same
// sink diff cleanly for before/after comparisons.
type Snapshot struct {
	// AtNS is the simulated time the snapshot was taken.
	AtNS Time `json:"at_ns"`
	// Counters maps exposition names (e.g. "evals_total") to values.
	Counters map[string]uint64 `json:"counters"`
	// HookDispatchNS summarizes wall-clock hook dispatch latency per
	// site, in real nanoseconds.
	HookDispatchNS map[string]stats.Summary `json:"hook_dispatch_ns,omitempty"`
	// EvalVMSteps summarizes VM steps per evaluation, per monitor.
	EvalVMSteps map[string]stats.Summary `json:"eval_vm_steps,omitempty"`
	// IOLatencyNS summarizes simulated I/O latency per device.
	IOLatencyNS map[string]stats.Summary `json:"io_latency_ns,omitempty"`
	// EventsTotal counts all flight-recorder events ever recorded;
	// EventsRetained is how many the ring still holds.
	EventsTotal    uint64 `json:"events_total"`
	EventsRetained int    `json:"events_retained"`
}

// Snapshot captures the sink's current state. Nil sinks snapshot to the
// zero value.
func (s *Sink) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]uint64{}}
	if s == nil {
		return snap
	}
	snap.AtNS = s.clock()
	for _, c := range s.Counters.byName() {
		snap.Counters[c.name] = c.ctr.Value()
	}
	summarize := func(m map[string]*Hist) map[string]stats.Summary {
		if len(m) == 0 {
			return nil
		}
		out := make(map[string]stats.Summary, len(m))
		for name, h := range m {
			if sum := h.Summary(); sum.Count > 0 {
				out[name] = sum
			}
		}
		return out
	}
	snap.HookDispatchNS = summarize(s.hookNS)
	snap.EvalVMSteps = summarize(s.evalSteps)
	snap.IOLatencyNS = summarize(s.ioNS)
	snap.EventsTotal = s.rec.Total()
	snap.EventsRetained = s.rec.Len()
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Sink) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Snapshot())
}

// WritePrometheus renders the sink in the Prometheus text exposition
// format, deterministically ordered: one family per counter, and each
// latency/step distribution as a native cumulative histogram with
// `_bucket{le=...}`/`_sum`/`_count` series. The metric prefix is
// "guardrails_".
//
// Bucket boundaries follow the underlying log2 histogram: le="1"
// holds the sub-1 observations, le="2^(k+1)" closes the [2^k, 2^(k+1))
// bin, and empty bins are elided (the cumulative counts are unchanged
// by elision). Observations past the top bin are absorbed by it, so
// the le="+Inf" bucket always equals _count.
func (s *Sink) WritePrometheus(w io.Writer) error {
	snap := s.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p("# TYPE guardrails_%s counter\nguardrails_%s %d\n", name, name, snap.Counters[name])
	}
	family := func(metric, label string, m map[string]*Hist) {
		keys := make([]string, 0, len(m))
		for k, h := range m {
			if h.Summary().Count > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			return
		}
		p("# TYPE guardrails_%s histogram\n", metric)
		for _, k := range keys {
			zero, bins, total, sum := m[k].buckets()
			cum := zero
			p("guardrails_%s_bucket{%s=%q,le=\"1\"} %d\n", metric, label, k, cum)
			for i, n := range bins {
				if n == 0 {
					continue
				}
				cum += n
				p("guardrails_%s_bucket{%s=%q,le=\"%d\"} %d\n", metric, label, k, uint64(1)<<(i+1), cum)
			}
			p("guardrails_%s_bucket{%s=%q,le=\"+Inf\"} %d\n", metric, label, k, total)
			p("guardrails_%s_sum{%s=%q} %g\n", metric, label, k, sum)
			p("guardrails_%s_count{%s=%q} %d\n", metric, label, k, total)
		}
	}
	var hookNS, evalSteps, ioNS map[string]*Hist
	if s != nil {
		hookNS, evalSteps, ioNS = s.hookNS, s.evalSteps, s.ioNS
	}
	family("hook_dispatch_ns", "site", hookNS)
	family("eval_vm_steps", "monitor", evalSteps)
	family("io_latency_ns", "device", ioNS)
	p("# TYPE guardrails_flight_events counter\nguardrails_flight_events %d\n", snap.EventsTotal)
	return err
}
