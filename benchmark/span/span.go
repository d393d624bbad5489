// Package span is the benchmark's in-memory tracer. The layer-replay
// pass records one span around every call-group it makes into a layer of
// the program (spans inside the program are a later change), keeps them
// in memory, and writes them when the benchmark ends as Chrome
// trace_event JSON — the format telemetry.WriteTrace emits, so Perfetto
// opens both.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed interval. Parent is the index of the span that
// caused it, or -1 for a root.
type Span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	// Counts are the work counters attached at this boundary (ops,
	// steps, allocations), so ratios are taken where the work happens.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Recorder collects spans. A nil *Recorder records nothing, so the
// untraced pass runs the same code with tracing off. Not safe for
// concurrent use: only the driver goroutine records.
type Recorder struct {
	origin   time.Time
	spans    []Span
	open     []int
	workload string
	round    int
}

// New returns a recorder whose clock starts now.
func New() *Recorder { return &Recorder{origin: time.Now()} }

// SetContext labels subsequently recorded spans.
func (r *Recorder) SetContext(workload string, round int) {
	if r != nil {
		r.workload, r.round = workload, round
	}
}

func (r *Recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// Begin opens a span under the innermost open one and returns its id.
func (r *Recorder) Begin(name, layer string) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		Name: name, Layer: layer, Parent: r.parent(),
		StartNS:  int64(time.Since(r.origin)),
		Workload: r.workload, Round: r.round,
	})
	r.open = append(r.open, id)
	return id
}

// End closes span id (and any span still open inside it), attaching
// counts.
func (r *Recorder) End(id int, counts map[string]float64) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.origin))
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[top].EndNS = now
		if top == id {
			break
		}
	}
	r.spans[id].Counts = counts
}

// Add records a finished leaf span under the innermost open one, from a
// time.Now pair the caller already took (sampled batches reuse the
// batch's own timestamps, so tracing adds no clock reads).
func (r *Recorder) Add(name, layer string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, Span{
		Name: name, Layer: layer, Parent: r.parent(),
		StartNS: int64(start.Sub(r.origin)), EndNS: int64(end.Sub(r.origin)),
		Workload: r.workload, Round: r.round,
	})
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once and children are clipped to the parent's interval; a span
// whose parent index is out of range is treated as a root.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.EndNS - s.StartNS
		if dur < 0 {
			dur = 0
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, c := range kids {
			lo, hi := spans[c].StartNS, spans[c].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = dur - covered
	}
	return self
}

// LayerSelf sums self time by layer.
func LayerSelf(spans []Span) map[string]int64 {
	out := map[string]int64{}
	for i, t := range SelfTimes(spans) {
		out[spans[i].Layer] += t
	}
	return out
}

// traceEvent and traceFile mirror internal/telemetry's trace_event
// records.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChrome renders the spans as Chrome trace_event JSON: one lane
// (tid) per layer, named by thread_name metadata, complete ("X") events
// in microseconds, with parent, workload, round, self time and counts
// as args.
func WriteChrome(w io.Writer, spans []Span) error {
	lanes := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := lanes[s.Layer]; !ok {
			lanes[s.Layer] = 0
			names = append(names, s.Layer)
		}
	}
	sort.Strings(names)
	out := traceFile{DisplayTimeUnit: "ns", TraceEvents: make([]traceEvent, 0, len(spans)+len(names))}
	for i, n := range names {
		lanes[n] = i + 1
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": n},
		})
	}
	self := SelfTimes(spans)
	for i, s := range spans {
		args := map[string]any{
			"id": i, "parent": s.Parent, "workload": s.Workload,
			"round": s.Round, "self_ns": self[i],
		}
		for k, v := range s.Counts {
			args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: s.Name, Cat: s.Layer, Phase: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: lanes[s.Layer], Args: args,
		})
	}
	return json.NewEncoder(w).Encode(out)
}
