package vm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// freshAnalysis analyzes p with a new analyzer, never one from the
// pool: the reference a recycled analyzer must match.
func freshAnalysis(p *Program, env CellEnv) (*Analysis, error) {
	a := new(analyzer)
	a.reset(p, env)
	if err := a.sweep(); err != nil {
		return nil, err
	}
	return a.facts(), nil
}

// rejectedMidway is a program the analyzer rejects after it has filled
// some states: a diamond, then a read of a register never written.
func rejectedMidway(t *testing.T) *Program {
	b := NewBuilder("rejected")
	b.Load(1, "x")
	b.MovI(2, 0)
	b.JmpIfI(OpJGtI, 1, 0, "L")
	b.ALUI(OpAddI, 2, 2, 1)
	b.Label("L")
	b.Mov(0, 7) // r7 is never written
	b.Exit()
	return mustBuild(t, b)
}

// deadJumpOffEnd jumps to one past its last instruction on an edge the
// analyzer proves dead: the program verifies, and its step bound reads
// the step table's entry past the end, which must be 0.
func deadJumpOffEnd(t *testing.T) *Program {
	b := NewBuilder("dead-jump-off-end")
	b.MovI(1, 5)
	b.JmpIfI(OpJGtI, 1, 10, "end")
	b.MovI(0, 1)
	b.Exit()
	b.Label("end")
	return mustBuild(t, b)
}

// TestRecycledAnalyzerMatchesFresh: the analyzer's states and step
// table come from a pool, so whatever the previous analysis left there
// — a longer program's states, a rejected program's half-filled ones —
// must not reach the next result. Each analysis below follows a long
// program and a rejected one and must return exactly what a new
// analyzer returns, open-world and under an env.
func TestRecycledAnalyzerMatchesFresh(t *testing.T) {
	long := buildBenchProgram(t, 200)
	rejected := rejectedMidway(t)
	fallsOff := &Program{Name: "falls-off", Code: []Instr{{Op: OpMovI, Dst: 0, Imm: 1}}}
	env := func(cell int32) (Interval, bool) { return RangeInterval(0, 0.04), cell == 0 }
	render := func(a *Analysis, err error) string { return fmt.Sprintf("%+v / %v", a, err) }
	for _, p := range []*Program{buildImageFixture(t), deadJumpOffEnd(t), buildBenchProgram(t, 3), long} {
		for _, e := range []CellEnv{nil, env} {
			want := render(freshAnalysis(p, e))
			for _, dirty := range []*Program{long, rejected, fallsOff} {
				analyzeEnv(dirty, e)
				if got := render(analyzeEnv(p, e)); got != want {
					t.Errorf("%s after %s: recycled analyzer gave\n%s\nnew analyzer gave\n%s", p.Name, dirty.Name, got, want)
				}
			}
		}
		if _, err := analyzeEnv(rejected, nil); err == nil {
			t.Fatal("rejected program verified")
		}
		if got, want := render(analyzeEnv(rejected, nil)), render(freshAnalysis(rejected, nil)); got != want {
			t.Errorf("rejection after %s: got %s, want %s", p.Name, got, want)
		}
	}
}

// TestCertifyAfterRecycledAnalyzerChecks: a certificate built from a
// recycled analyzer is the one a new analyzer's states give, and it
// checks.
func TestCertifyAfterRecycledAnalyzerChecks(t *testing.T) {
	long := buildBenchProgram(t, 200)
	p := buildBenchProgram(t, 3)
	want := *p
	if err := Certify(&want, NumBuiltinHelpers); err != nil {
		t.Fatal(err)
	}
	for _, dirty := range []*Program{long, rejectedMidway(t)} {
		analyzeEnv(dirty, nil)
		q := *p
		if err := Certify(&q, NumBuiltinHelpers); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(q.Cert, want.Cert) {
			t.Errorf("certificate after %s differs:\n%+v\nwant\n%+v", dirty.Name, q.Cert, want.Cert)
		}
		q.Meta = ProgramMeta{}
		if err := CheckCertificate(&q, NumBuiltinHelpers); err != nil {
			t.Errorf("certificate after %s does not check: %v", dirty.Name, err)
		}
	}
}

// TestConcurrentVerifyAgrees: analyzers are shared through a pool, so
// goroutines verifying copies of the same programs at once must each
// get the Meta a lone Verify gives. Run under -race.
func TestConcurrentVerifyAgrees(t *testing.T) {
	progs := []*Program{buildImageFixture(t), buildBenchProgram(t, 3), buildBenchProgram(t, 200)}
	want := make([]ProgramMeta, len(progs))
	for i, p := range progs {
		q := *p
		if err := Verify(&q, NumBuiltinHelpers); err != nil {
			t.Fatal(err)
		}
		want[i] = q.Meta
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				i := (g + it) % len(progs)
				q := *progs[i]
				if err := Verify(&q, NumBuiltinHelpers); err != nil {
					errs <- err
					return
				}
				if q.Meta != want[i] {
					errs <- fmt.Errorf("%s: Meta %+v, want %+v", q.Name, q.Meta, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
