package reach

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// fixture is a module "mod" in memory: a facade, four internal
// packages, a command, a non-main benchmark package, and just enough of
// a standard library for the interface-name rule and the field
// exemptions. Keys are "import/path/file.go".
var fixture = map[string]string{
	"fmt/fmt.go":   `package fmt; type Stringer interface{ String() string }`,
	"sort/sort.go": `package sort; type Interface interface{ Len() int; Less(i, j int) bool; Swap(i, j int) }`,
	"encoding/json/json.go": `package json
type Marshaler interface{ MarshalJSON() ([]byte, error) }
func Marshal(v any) ([]byte, error) { return nil, nil }`,
	"encoding/binary/binary.go": `package binary; func Write(w, order, data any) error { return nil }`,
	"reflect/reflect.go":        `package reflect; func DeepEqual(x, y any) bool { return false }`,
	"sync/sync.go": `package sync
type Mutex struct{}
func (*Mutex) Lock()   {}
func (*Mutex) Unlock() {}`,

	"mod/mod.go": `package mod

import "mod/internal/a"

// Thing is reachable by users only through this alias.
type Thing = a.Thing

func NewThing() *Thing { return a.New() }

// Unused is exported, but no root names it: the facade is not a root.
func Unused() { a.OnlyFromDeadFacadeCode() }

func unexportedAndUnused() {}
`,

	"mod/internal/a/a.go": `package a

import (
	"encoding/json"
	"fmt"
	"sort"

	"mod/internal/b"
)

type Thing struct{}

func New() *Thing { hookStale(); return &Thing{} }

// Exported is called by the command; b.Result is live through its
// signature.
func (t *Thing) Exported() b.Result { return b.Result{} }

func (t *Thing) unexportedUnused() {}

// Interface-named methods of a live type stay: calls through
// interfaces are not resolved.
func (t *Thing) String() string               { return "" }
func (t *Thing) Error() string                { return "" }
func (t *Thing) Unwrap() error                { return nil }
func (t *Thing) MarshalJSON() ([]byte, error) { return nil, nil }
func (t *Thing) Len() int                     { return 0 }
func (t *Thing) Less(i, j int) bool           { return false }
func (t *Thing) Swap(i, j int)                {}
func (t *Thing) Frob()                        {}
func (t *Thing) inline()                      {}

// Frobber is a module interface nothing mentions: it is itself a
// finding, and its method names count all the same.
type Frobber interface{ Frob() }

func viaInlineInterface(x any) { _, _ = x.(interface{ inline() }) }

var (
	_ fmt.Stringer   = (*Thing)(nil)
	_ sort.Interface = (*Thing)(nil)
	_ json.Marshaler = (*Thing)(nil)
	_                = viaBlank()
)

func init() { viaInit(); viaInlineInterface(nil) }

func viaInit()      {}
func viaBlank() int { return 0 }

func onlyTests() int         { return helperOfOnlyTests() }
func helperOfOnlyTests() int { return 1 }

func OnlyFromDeadFacadeCode() {}

//guardrails:testhook
func hookNoReason() {}

// hookOK has a doc comment before its directive.
//
//guardrails:testhook b's external test counts these
func hookOK() int { return keptByHook() }

func keptByHook() int { return 0 }

//guardrails:testhook New calls it, so this directive is stale
func hookStale() {}
`,
	"mod/internal/a/a_test.go": `package a

func fromATest() int { return onlyTests() }
`,

	"mod/internal/b/b.go": `package b

type Result struct{}

// ViaSignature is an exported method of a type the facade hands out,
// but nothing calls it.
func (Result) ViaSignature() {}

type Orphan struct{ Z int }

func (Orphan) String() string { return "" }

const DeadConst = 1

var DeadVar = 2
`,

	"mod/internal/c/c.go": `package c

func FromMain()      { fromMainHelper() }
func fromMainHelper() {}
func FromBenchmark() {}
func Dead()          {}
`,

	// d exercises the field rules. The command builds a Cfg and calls
	// Use, Encode, Same and KindB.
	"mod/internal/d/d.go": `package d

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"sync"
)

type Cfg struct {
	Set       int
	NeverSet  int // read by Use, set by nothing
	Default   int // read by Use, given only fill's default
	NeverRead int // set by the command, read by nothing
	ReadDead  int // read only by dead code
	Tagged    int ` + "`json:\"tagged\"`" + `
	sync.Mutex
	latched bool
	viaAddr int
	mu      sync.Mutex
	counts  map[string]int
	pt      Point
	anon    struct{ x, y int }
}

func (c *Cfg) fill() {
	if c.Default == 0 {
		c.Default = 4
	}
}

// latch assigns a constant in a method of its own type, but under no
// comparison with a constant: a setting, not a default.
func (c *Cfg) latch() bool {
	if !c.latched {
		c.latched = true
		return true
	}
	return false
}

func bump(p *int) { *p++ }

func Use(c *Cfg) int {
	c.fill()
	c.Lock()
	defer c.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	bump(&c.viaAddr)
	c.counts["k"]++
	c.pt.X = 1
	seen[c.pt] = true
	seen[Point{X: 1, Y: 2}] = true
	c.anon.x = 1
	n := 0
	if c.latch() {
		n++
	}
	return n + c.Set + c.NeverSet + c.Default + c.viaAddr + len(c.counts) + c.anon.y
}

func dead(c *Cfg) int { return c.ReadDead }

// Point is a map key: its fields are read by hashing.
type Point struct{ X, Y int }

var seen = map[Point]bool{}

// Pair is compared with ==: its fields are read by comparison.
type Pair struct{ L, R int }

func Same(a, b Pair) bool { return a == b }

// Wire, Bin and Refl go to encoding or reflection, which read and
// write fields no source mentions.
type (
	Wire struct{ A int }
	Bin  struct{ B int }
	Refl struct{ C int }
)

func Encode() bool {
	_, _ = json.Marshal(Wire{})
	_ = binary.Write(nil, nil, &Bin{})
	return reflect.DeepEqual([]Refl{}, nil)
}

type DeadType struct{ F int } // the type is the finding, not its field

type Kind int

// One live constant keeps its whole group: deleting KindA would
// renumber KindB.
const (
	KindA Kind = iota
	KindB
	KindC
)

const Lonely = 5
`,

	"mod/cmd/tool/main.go": `package main

import (
	"mod"
	"mod/internal/c"
	"mod/internal/d"
)

func main() {
	c.FromMain()
	_ = mod.NewThing().Exported()
	_ = d.Use(&d.Cfg{Set: 1, NeverRead: 2, ReadDead: 3})
	_ = d.Encode()
	_ = d.Same(d.Pair{L: 1, R: 2}, d.Pair{})
	_ = d.KindB
}
`,
	"mod/benchmark/gen/gen.go": `package gen

import "mod/internal/c"

// Unused is called by nobody: packages outside internal/ are roots whole.
func Unused() { c.FromBenchmark() }
`,
}

// loader type-checks fixture packages from memory, importing each other
// on demand.
type loader struct {
	t     *testing.T
	src   map[string]string
	fset  *token.FileSet
	pkgs  map[string]*Package
	order []string
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	var names []string
	for name := range l.src {
		if strings.HasPrefix(name, path+"/") && !strings.Contains(name[len(path)+1:], "/") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture has no package %q", path)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, l.src[name], parser.ParseComments)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},

		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	l.pkgs[path] = &Package{Fset: l.fset, Files: files, Info: info, Types: tpkg}
	l.order = append(l.order, path)
	return tpkg, nil
}

// analyze loads every "mod" package of src and returns finding
// descriptions keyed by declaration.
func analyze(t *testing.T, src map[string]string) map[string]string {
	t.Helper()
	l := &loader{t: t, src: src, fset: token.NewFileSet(), pkgs: map[string]*Package{}}
	for name := range src {
		if path := name[:strings.LastIndex(name, "/")]; strings.HasPrefix(path, "mod") {
			if _, err := l.Import(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Strings(l.order)
	var pkgs []*Package
	for _, path := range l.order {
		if strings.HasPrefix(path, "mod") {
			pkgs = append(pkgs, l.pkgs[path])
		}
	}
	got := map[string]string{}
	for _, f := range Analyze("mod", pkgs) {
		if prev, dup := got[f.Decl]; dup {
			t.Errorf("%s reported twice: %q and %q", f.Decl, prev, f.What)
		}
		got[f.Decl] = f.What
	}
	return got
}

// TestAnalyzeFixture compares the whole finding set, so a declaration
// or field wrongly kept fails as loudly as one wrongly flagged.
func TestAnalyzeFixture(t *testing.T) {
	const (
		unreachable = "reachable only from tests"
		neverSet    = "no non-test code sets"
		neverRead   = "no non-test code reads"
		onlyDefault = "only ever holds its default"
	)
	want := map[string]string{
		// Called only from a_test.go, and the helper only it calls.
		"mod/internal/a.onlyTests":         unreachable,
		"mod/internal/a.helperOfOnlyTests": unreachable,
		// Unexported, uncalled, and no interface has the name.
		"mod/internal/a.Thing.unexportedUnused": unreachable,
		// An interface nothing mentions (Thing.Frob stays: the name rule
		// does not ask whether the interface is live).
		"mod/internal/a.Frobber": unreachable,
		// The facade is checked like internal/: an export no root names
		// is a finding, and so is what only it calls.
		"mod.Unused":                            unreachable,
		"mod.unexportedAndUnused":               unreachable,
		"mod/internal/a.OnlyFromDeadFacadeCode": unreachable,
		// b.Result is live through Exported's signature, but nothing
		// calls its exported method.
		"mod/internal/b.Result.ViaSignature": unreachable,
		// A dead type takes its interface-named methods with it, and its
		// fields are not reported on their own.
		"mod/internal/b.Orphan":        unreachable,
		"mod/internal/b.Orphan.String": unreachable,
		"mod/internal/b.DeadConst":     unreachable,
		"mod/internal/b.DeadVar":       unreachable,
		"mod/internal/c.Dead":          unreachable,
		// Field rules.
		"mod/internal/d.Cfg.NeverSet":  neverSet,
		"mod/internal/d.Cfg.Default":   onlyDefault,
		"mod/internal/d.Cfg.NeverRead": neverRead,
		"mod/internal/d.Cfg.ReadDead":  neverRead,
		"mod/internal/d.dead":          unreachable,
		"mod/internal/d.DeadType":      unreachable,
		// A constant alone in its declaration is its own group.
		"mod/internal/d.Lonely": unreachable,
		// Directive misuse; both declarations are kept.
		"mod/internal/a.hookNoReason": "testhook directive needs a reason",
		"mod/internal/a.hookStale":    "the roots already reach",
	}
	got := analyze(t, fixture)
	for decl, what := range want {
		if !strings.Contains(got[decl], what) {
			t.Errorf("%s: got %q, want a finding containing %q", decl, got[decl], what)
		}
	}
	for decl, what := range got {
		if _, ok := want[decl]; !ok {
			t.Errorf("%s wrongly reported: %s", decl, what)
		}
	}
}

// TestHookLimit: every directive past the MaxHooks-th is a finding.
func TestHookLimit(t *testing.T) {
	var b strings.Builder
	b.WriteString("package h\n")
	for i := 0; i <= MaxHooks; i++ {
		fmt.Fprintf(&b, "//guardrails:testhook reason %d\nfunc hook%d() {}\n", i, i)
	}
	got := analyze(t, map[string]string{"mod/internal/h/h.go": b.String()})
	last := fmt.Sprintf("mod/internal/h.hook%d", MaxHooks)
	if !strings.Contains(got[last], "of at most") || len(got) != 1 {
		t.Errorf("findings = %v, want only %s over the limit", got, last)
	}
}

// TestFindingString pins the file:line:col rendering the driver prints.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "x.go", Line: 3, Column: 7},
		Decl: "mod/internal/a.onlyTests", What: "reachable only from tests (or from nothing)",
	}
	if got, want := f.String(), "x.go:3:7: reach: mod/internal/a.onlyTests: reachable only from tests (or from nothing)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
