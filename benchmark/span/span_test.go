package span

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},     // overlaps a: 10..60 covered once
		{Name: "late", StartNS: 90, EndNS: 120, Parent: 0}, // clipped to the parent's end
		{Name: "leaf", StartNS: 12, EndNS: 20, Parent: 1},
		{Name: "orphan", StartNS: 5, EndNS: 25, Parent: 99}, // unknown parent: a root
		{Name: "inside", StartNS: 35, EndNS: 38, Parent: 2},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // root
		30 - 8,                       // a minus leaf
		30 - 3,                       // b minus inside
		30,
		8,
		20,
		3,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	var off *Recorder
	off.End(off.Begin("x", "y"), nil) // must not panic
	if off.Spans() != nil {
		t.Error("nil recorder recorded spans")
	}

	r := New()
	r.SetContext("w", 2)
	outer := r.Begin("outer", "driver")
	inner := r.Begin("inner", "vm")
	r.End(inner, map[string]float64{"ops": 3})
	r.End(outer, nil)
	s := r.Spans()
	if len(s) != 2 || s[0].Parent != -1 || s[1].Parent != 0 || s[1].Workload != "w" || s[1].Round != 2 {
		t.Fatalf("unexpected spans: %+v", s)
	}
	if s[1].EndNS < s[1].StartNS || s[0].EndNS < s[1].EndNS {
		t.Errorf("inner span not inside outer: %+v", s)
	}
}

func TestWriteChromeIsLoadableJSON(t *testing.T) {
	var buf bytes.Buffer
	spans := []Span{
		{Name: "root", Layer: "driver", StartNS: 0, EndNS: 2000, Parent: -1},
		{Name: "call", Layer: "vm", StartNS: 500, EndNS: 1500, Parent: 0, Counts: map[string]float64{"ops": 64}},
	}
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Ph string
			TS, Dur  float64
			Args     map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	// Two lane-name records, then the two spans.
	if len(file.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(file.TraceEvents))
	}
	call := file.TraceEvents[3]
	if call.Ph != "X" || call.TS != 0.5 || call.Dur != 1 || call.Args["ops"] != 64.0 || call.Args["self_ns"] != 1000.0 {
		t.Errorf("call event = %+v", call)
	}
}
