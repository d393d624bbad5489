package vm

import (
	"math"
	"strings"
	"testing"
)

// witnessFixture builds a small threshold monitor: violated (r0 = 0)
// iff qdepth > 8, in which case it reports qdepth and writes
// fallback = 1.
func witnessFixture(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("witness-fixture")
	b.Load(6, "qdepth")
	b.JmpIfI(OpJGtI, 6, 8, "violated")
	b.MovI(0, 1)
	b.Exit()
	b.Label("violated")
	b.Mov(1, 6)
	b.Call(HelperReport)
	b.MovI(1, 1)
	b.Store("fallback", 1)
	b.MovI(0, 0)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReplayProgramViolation(t *testing.T) {
	p := witnessFixture(t)
	rec := ReplayProgram(p, map[string]float64{"qdepth": 42}, 0, 1000)
	if rec.Err != nil {
		t.Fatalf("replay trapped: %v", rec.Err)
	}
	if !rec.Violated || rec.R0 != 0 {
		t.Fatalf("qdepth=42 should violate: r0=%v violated=%v", rec.R0, rec.Violated)
	}
	if len(rec.Calls) != 1 || rec.Calls[0].Helper != HelperReport || rec.Calls[0].Arg != 42 {
		t.Fatalf("expected one REPORT(42) call, got %+v", rec.Calls)
	}
	if v, ok := rec.FinalStore("fallback"); !ok || v != 1 {
		t.Fatalf("expected final fallback = 1, got %v (present=%v)", v, ok)
	}
	if rec.Trace.N != 1 || !rec.Trace.Taken[0] {
		t.Fatalf("expected one taken branch, got %+v", rec.Trace)
	}
}

func TestReplayProgramCleanRun(t *testing.T) {
	p := witnessFixture(t)
	rec := ReplayProgram(p, map[string]float64{"qdepth": 3}, 0, 1000)
	if rec.Err != nil || rec.Violated || rec.R0 != 1 {
		t.Fatalf("qdepth=3 should pass: r0=%v violated=%v err=%v", rec.R0, rec.Violated, rec.Err)
	}
	if len(rec.Calls) != 0 || len(rec.Stores) != 0 {
		t.Fatalf("clean run must not report or store: %+v %+v", rec.Calls, rec.Stores)
	}
	// Keys the assignment omits read 0, like an unpopulated store.
	rec = ReplayProgram(p, nil, 0, 1000)
	if rec.Violated {
		t.Fatalf("unpopulated store (qdepth=0) should not violate qdepth > 8")
	}
}

// Stores must feed later loads of the same key, so self-feedback
// programs replay against their own writes.
func TestReplayStoreFeedsLoad(t *testing.T) {
	b := NewBuilder("store-load")
	b.MovI(1, 7)
	b.Store("k", 1)
	b.Load(0, "k")
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rec := ReplayProgram(p, nil, 0, 0)
	if rec.Err != nil || rec.R0 != 7 {
		t.Fatalf("LOAD after SAVE returned %v (err=%v), want 7", rec.R0, rec.Err)
	}
}

// Replay helpers are deterministic: HelperNow pins to the supplied
// instant, and two replays of the same assignment agree exactly.
func TestReplayDeterministicNow(t *testing.T) {
	b := NewBuilder("now")
	b.Call(HelperNow)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a := ReplayProgram(p, nil, 0, 12345)
	bb := ReplayProgram(p, nil, 0, 12345)
	if a.R0 != 12345 || bb.R0 != 12345 {
		t.Fatalf("HelperNow not pinned: %v, %v", a.R0, bb.R0)
	}
}

// A trapping replay reports the error and is never
// counted as a violation.
func TestReplayTrapNotViolation(t *testing.T) {
	p := &Program{
		Name: "trap",
		Code: []Instr{{Op: OpMovI, Dst: 0, Imm: 0}}, // falls off the end
	}
	rec := ReplayProgram(p, nil, 0, 0)
	if rec.Err == nil {
		t.Fatal("falling off the end should trap")
	}
	if rec.Violated {
		t.Fatal("a trapped run must not count as a violation")
	}
}

func TestCandidatesRespectDeclaredRange(t *testing.T) {
	cs := Candidates(RangeInterval(0, 128), true)
	want := map[float64]bool{0: true, 128: true, 64: true}
	for _, v := range cs {
		if math.IsNaN(v) || v < 0 || v > 128 {
			t.Fatalf("candidate %v escapes declared range [0,128]", v)
		}
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("candidates %v miss range endpoints/midpoint %v", cs, want)
	}
	// Deduplicated: [0,0] collapses to a single candidate.
	cs = Candidates(RangeInterval(0, 0), true)
	if len(cs) != 1 || cs[0] != 0 {
		t.Fatalf("degenerate range candidates = %v, want [0]", cs)
	}
}

func TestCandidatesUndeclared(t *testing.T) {
	cs := Candidates(Interval{}, false)
	if len(cs) == 0 {
		t.Fatal("undeclared feature must still get seed candidates")
	}
	seen := map[float64]bool{}
	for _, v := range cs {
		if seen[v] {
			t.Fatalf("duplicate seed candidate %v in %v", v, cs)
		}
		seen[v] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("seed candidates %v missing 0 and 1", cs)
	}
}

func TestLoadedKeysSorted(t *testing.T) {
	b := NewBuilder("keys")
	b.Load(1, "zeta")
	b.Load(2, "alpha")
	b.Load(3, "zeta")
	b.Store("written_only", 1)
	b.MovI(0, 0)
	b.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	keys := LoadedKeys(p)
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "zeta" {
		t.Fatalf("LoadedKeys = %v, want [alpha zeta]", keys)
	}
}

func TestTraceString(t *testing.T) {
	if s := TraceString(&BranchTrace{}); s != "no branches" {
		t.Fatalf("empty trace = %q", s)
	}
	tr := &BranchTrace{N: 2}
	tr.PC[0], tr.Taken[0] = 3, false
	tr.PC[1], tr.Taken[1] = 7, true
	if s := TraceString(tr); s != "branches [3↓ 7→]" {
		t.Fatalf("trace = %q", s)
	}
	tr.Truncated = true
	if s := TraceString(tr); !strings.Contains(s, "…") {
		t.Fatalf("truncated trace missing ellipsis: %q", s)
	}
}

func TestWitnessString(t *testing.T) {
	w := &Witness{
		Inputs: map[string]float64{"b": 2, "a": 1},
		Steps:  []string{"first", "second"},
	}
	if got := w.String(); got != "inputs {a=1, b=2}: first; second" {
		t.Fatalf("Witness.String() = %q", got)
	}
}
