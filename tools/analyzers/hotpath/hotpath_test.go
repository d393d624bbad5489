package hotpath

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const fixture = `package fixture

import "time"

type item struct{ n int }

//guardrails:hotpath
func dirty(m map[string]int, xs []int) int {
	s := make([]int, 4)        // want: make allocates
	p := new(item)             // want: new allocates
	xs = append(xs, 1)         // want: append may grow and allocate
	q := &item{n: 2}           // want: &composite literal
	lit := []int{1, 2, 3}      // want: slice literal
	mm := map[string]int{}     // want: map literal
	f := func() int { return len(lit) } // want: func literal
	t := time.Now()            // want: time.Now
	b := []byte("k")           // want: string conversion copies
	total := m["k"]            // want: map indexed by a string key
	for _, v := range m {      // want: map iteration
		total += v
	}
	_ = mm
	return s[0] + p.n + q.n + f() + int(t.Unix()) + total + len(b) + xs[0]
}

type site struct{ fires int }

type kernel struct {
	last  *site
	sites map[string]*site
	byID  map[int32]*site
}

//guardrails:hotpath
func (k *kernel) fire(name string, id int32) int {
	s := k.last
	if s == nil {
		s = k.sites[name] //guardrails:coldpath the first fire
		k.last = s
	}
	return s.fires + k.byID[id].fires
}

//guardrails:hotpath
func suppressed() error {
	return &timeoutError{} //guardrails:coldpath cold error path
}

type timeoutError struct{}

func (*timeoutError) Error() string { return "timeout" }

// unmarked is as dirty as it gets but carries no directive: no findings.
func unmarked() []int {
	return append(make([]int, 1), 2)
}

//guardrails:hotpath
func clean(xs []int, arg float64) float64 {
	total := arg
	for _, x := range xs {
		total += float64(x)
	}
	var buf [8]float64
	buf[0] = total
	return buf[0]
}
`

// stubs are the standard-library packages the fixtures import, reduced
// to the declarations they use. Type-checking stubs instead of reading
// compiled export data keeps the test hermetic; the analyzer only looks
// at the import path and the names.
var stubs = map[string]string{
	"time": `package time
type Time struct{}
func Now() Time { return Time{} }
func (t Time) Unix() int64 { return 0 }
`,
	"sync": `package sync
type Mutex struct{ state int32 }
func (m *Mutex) Lock() {}
func (m *Mutex) Unlock() {}
type RWMutex struct{ w Mutex }
func (rw *RWMutex) RLock() {}
func (rw *RWMutex) RUnlock() {}
`,
	"sync/atomic": `package atomic
type Bool struct{ v uint32 }
func (x *Bool) Load() bool { return false }
func (x *Bool) Store(v bool) {}
func (x *Bool) CompareAndSwap(old, new bool) bool { return false }
type Uint64 struct{ v uint64 }
func (x *Uint64) Load() uint64 { return 0 }
func (x *Uint64) Store(v uint64) {}
func (x *Uint64) Add(d uint64) uint64 { return 0 }
func (x *Uint64) Swap(v uint64) uint64 { return 0 }
func AddUint64(addr *uint64, delta uint64) uint64 { return 0 }
func LoadUint64(addr *uint64) uint64 { return 0 }
func OrUint32(addr *uint32, mask uint32) uint32 { return 0 }
`,
}

// stubImporter type-checks the stub for each import path.
type stubImporter struct{ fset *token.FileSet }

func (im stubImporter) Import(path string) (*types.Package, error) {
	src, ok := stubs[path]
	if !ok {
		return nil, &importError{path}
	}
	f, err := parser.ParseFile(im.fset, path+".go", src, 0)
	if err != nil {
		return nil, err
	}
	return (&types.Config{}).Check(path, im.fset, []*ast.File{f}, nil)
}

type importError struct{ path string }

func (e *importError) Error() string { return "unexpected import " + e.path }

func analyzeFixture(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: stubImporter{fset}}
	if _, err := conf.Check("fixture", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return Analyze(&Package{Fset: fset, Files: []*ast.File{f}, Info: info})
}

// TestAnalyzeFlagsAllCategories: every allocation category plus
// time.Now, string-keyed indexing and map iteration is caught in the
// marked dirty function.
func TestAnalyzeFlagsAllCategories(t *testing.T) {
	findings := analyzeFixture(t, fixture)
	wants := []string{
		"make allocates",
		"new allocates",
		"append may grow and allocate",
		"&composite literal",
		"slice literal",
		"map literal",
		"func literal",
		"time.Now",
		"string conversion copies",
		"map indexed by a string key",
		"map iteration",
	}
	for _, want := range wants {
		found := false
		for _, f := range findings {
			if f.Func == "dirty" && strings.Contains(f.What, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding matching %q in: %v", want, findings)
		}
	}
}

// TestAnalyzeScope: unmarked functions, clean marked functions, and
// coldpath-suppressed lines produce no findings.
func TestAnalyzeScope(t *testing.T) {
	for _, f := range analyzeFixture(t, fixture) {
		switch f.Func {
		case "unmarked":
			t.Errorf("unmarked function flagged: %v", f)
		case "clean":
			t.Errorf("clean function flagged: %v", f)
		case "suppressed", "kernel.fire":
			t.Errorf("coldpath-suppressed line flagged: %v", f)
		}
	}
}

// lockedFixture seeds the locked-instruction rule with the fire path as
// it was before it became single-writer: Monitor.evaluateAt's
// re-entrancy CAS and its mutex sections, and Kernel.Fire's by-name
// site lookup, fire-count add and the panic count the guard adds to —
// each cut down to the lines that lock or hash. The owned forms below
// them (plain fields, atomic loads and stores for the toggles) must
// pass.
const lockedFixture = `package fixture

import (
	"sync"
	"sync/atomic"
)

type Monitor struct {
	running atomic.Bool
	mu      sync.Mutex
	enabled bool
	evals   uint64
}

//guardrails:hotpath
func (m *Monitor) evaluateAt(site string, arg float64) bool {
	if !m.running.CompareAndSwap(false, true) {
		return true
	}
	defer m.running.Store(false)
	m.mu.Lock()
	if !m.enabled {
		m.mu.Unlock()
		return true
	}
	m.mu.Unlock()
	m.mu.Lock()
	m.evals++
	m.mu.Unlock()
	return true
}

type hookSite struct{ fires atomic.Uint64 }

type Kernel struct {
	sites      map[string]*hookSite
	hookPanics atomic.Uint64
}

//guardrails:hotpath
func (k *Kernel) Fire(site string, args ...float64) {
	hs := k.sites[site]
	n := hs.fires.Add(1)
	if n == 0 {
		k.hookPanics.Add(1)
	}
}

type table struct {
	mu    sync.RWMutex
	hits  uint64
	flags uint32
	swaps atomic.Uint64
}

//guardrails:hotpath
func (t *table) functionForms() {
	t.mu.RLock()
	atomic.AddUint64(&t.hits, 1)
	atomic.OrUint32(&t.flags, 2)
	t.swaps.Swap(3)
	t.mu.RUnlock()
}

type ownedMonitor struct {
	running bool
	enabled atomic.Bool
	evals   uint64
}

//guardrails:hotpath
func (m *ownedMonitor) evaluateAt(site string, arg float64) bool {
	if m.running {
		return true
	}
	m.running = true
	defer m.done()
	if !m.enabled.Load() {
		return true
	}
	m.evals++
	return true
}

func (m *ownedMonitor) done() { m.running = false }

type ownedSite struct {
	fires uint64
	gen   atomic.Uint64
	seen  uint64
}

//guardrails:hotpath
func (hs *ownedSite) fire(mu *sync.Mutex) uint64 {
	hs.fires++
	hs.gen.Store(hs.fires)
	mu.Lock() //guardrails:coldpath a plane that still locks
	mu.Unlock() //guardrails:coldpath
	return hs.fires + atomic.LoadUint64(&hs.seen)
}
`

// TestAnalyzeFlagsLockedInstructions: on the seeded parent fire path
// every mutex operation and atomic read-modify-write is a finding, in
// method and in function form, and the owned rewrite has none.
func TestAnalyzeFlagsLockedInstructions(t *testing.T) {
	got := map[string][]string{}
	for _, f := range analyzeFixture(t, lockedFixture) {
		got[f.Func] = append(got[f.Func], f.What)
	}
	want := map[string][]string{
		"Monitor.evaluateAt": {
			"atomic.Bool.CompareAndSwap: atomic read-modify-write",
			"sync.Mutex.Lock: mutex operation",
			"sync.Mutex.Unlock: mutex operation",
			"sync.Mutex.Unlock: mutex operation",
			"sync.Mutex.Lock: mutex operation",
			"sync.Mutex.Unlock: mutex operation",
		},
		"Kernel.Fire": {
			"map indexed by a string key",
			"atomic.Uint64.Add: atomic read-modify-write",
			"atomic.Uint64.Add: atomic read-modify-write",
		},
		"table.functionForms": {
			"sync.RWMutex.RLock: mutex operation",
			"atomic.AddUint64: atomic read-modify-write",
			"atomic.OrUint32: atomic read-modify-write",
			"atomic.Uint64.Swap: atomic read-modify-write",
			"sync.RWMutex.RUnlock: mutex operation",
		},
	}
	for fn, whats := range want {
		if len(got[fn]) != len(whats) {
			t.Errorf("%s: %d findings %q, want %d", fn, len(got[fn]), got[fn], len(whats))
			continue
		}
		for i, w := range whats {
			if !strings.HasPrefix(got[fn][i], w) {
				t.Errorf("%s finding %d = %q, want prefix %q", fn, i, got[fn][i], w)
			}
		}
	}
	for _, fn := range []string{"ownedMonitor.evaluateAt", "ownedSite.fire"} {
		if len(got[fn]) != 0 {
			t.Errorf("owned form %s flagged: %q", fn, got[fn])
		}
	}
}

// TestAnalyzeStringKeyedMapIndex: a map indexed by a string key is a
// finding and one indexed by an integer is not; the fixture's kernel.fire
// keeps its by-name lookup only on a coldpath line, and without the
// marker that line is its one finding.
func TestAnalyzeStringKeyedMapIndex(t *testing.T) {
	unmarked := strings.Replace(fixture, " //guardrails:coldpath the first fire", "", 1)
	if unmarked == fixture {
		t.Fatal("fixture lost its coldpath line")
	}
	var got []string
	for _, f := range analyzeFixture(t, unmarked) {
		if f.Func == "kernel.fire" {
			got = append(got, fmt.Sprintf("%d: %s", f.Pos.Line, f.What))
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "map indexed by a string key") {
		t.Errorf("kernel.fire without its coldpath marker: findings %q, want the one string-keyed index", got)
	}
}

// TestAnalyzeShadowedBuiltin: a local function named make is not the
// builtin; calling it must not be flagged.
func TestAnalyzeShadowedBuiltin(t *testing.T) {
	const src = `package fixture

func make(n int) int { return n }

//guardrails:hotpath
func usesShadow() int {
	return make(3)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "shadow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{}
	if _, err := conf.Check("fixture", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	findings := Analyze(&Package{Fset: fset, Files: []*ast.File{f}, Info: info})
	if len(findings) != 0 {
		t.Errorf("shadowed make flagged: %v", findings)
	}
}

// TestFindingString pins the file:line:col rendering the driver and CI
// grep on.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "x.go", Line: 3, Column: 7},
		Func: "Machine.Run", What: "make allocates",
	}
	if got, want := f.String(), "x.go:3:7: hotpath: Machine.Run: make allocates"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestImporterHelper keeps the stub importer honest about rejecting
// unexpected imports.
func TestImporterHelper(t *testing.T) {
	if _, err := (stubImporter{token.NewFileSet()}).Import("os"); err == nil {
		t.Error("stub importer accepted an unexpected import")
	}
}
