package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// escapeFixture is a VM's helper call three ways. copied is the
// interpreter's OpCall as it once was: the arguments copied into a local
// array whose address goes through an interface, which the compiler
// moves to the heap on every call although the line reads as a stack
// array. inPlace passes the register file itself and allocates nothing.
const escapeFixture = `package fixture

type Env interface{ Helper(args *[5]float64) float64 }

type Machine struct{ regs [16]float64 }

//guardrails:hotpath
func (m *Machine) copied(env Env) float64 {
	r := &m.regs
	args := [5]float64{r[1], r[2], r[3], r[4], r[5]}
	return env.Helper(&args)
}

//guardrails:hotpath
func (m *Machine) inPlace(env Env) float64 {
	r := &m.regs
	return env.Helper((*[5]float64)(r[1:6]))
}

//guardrails:hotpath
func cold(env Env) float64 {
	var args [5]float64 //guardrails:coldpath the fixture's suppressed escape
	return env.Helper(&args)
}

func unmarked(env Env) float64 {
	var args [5]float64
	return env.Helper(&args)
}

var _ = [...]any{(*Machine).copied, (*Machine).inPlace, cold, unmarked}
`

// TestEscapesReportsHeapMoves compiles the fixture with -gcflags=-m and
// requires exactly one finding: copied's args.
func TestEscapesReportsHeapMoves(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.go")
	for name, src := range map[string]string{"go.mod": "module fixture\n\ngo 1.22\n", "fixture.go": escapeFixture} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := CompilerDiagnostics(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, escapeFixture, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	findings := Escapes(&Package{Fset: fset, Files: []*ast.File{f}}, diags)
	if len(findings) != 1 || findings[0].Func != "Machine.copied" ||
		!strings.Contains(findings[0].What, "moved to heap: args") || findings[0].Pos.Line != 10 {
		t.Errorf("want one finding, Machine.copied's args moved to heap at line 10; got %v\ncompiler said: %v", findings, diags)
	}
}

// TestParseDiagnostics resolves relative file names and skips the
// package headers.
func TestParseDiagnostics(t *testing.T) {
	out := "# guardrails/internal/vm\ninternal/vm/interp.go:210:4: moved to heap: args\n/abs/x.go:3:1: can inline f\n"
	got := ParseDiagnostics([]byte(out), "/mod")
	want := []Diagnostic{
		{File: "/mod/internal/vm/interp.go", Line: 210, Col: 4, Msg: "moved to heap: args"},
		{File: "/abs/x.go", Line: 3, Col: 1, Msg: "can inline f"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
