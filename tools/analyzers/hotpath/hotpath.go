// Package hotpath is a static analysis over type-checked Go source
// that enforces the repo's zero-allocation discipline on its marked
// hot paths: the VM interpreter loops, the monitor fire path, and the
// provenance capture path all run on every hook firing, and the
// runtime allocation-free tests (hotpath_alloc_test.go) only cover the
// inputs they happen to drive. This pass covers every path through the
// source.
//
// A function opts in with the directive comment
//
//	//guardrails:hotpath
//
// in its doc comment. Inside a marked function the analysis flags:
//
//   - heap allocations: make, new, append, &T{...}, slice and map
//     composite literals, func literals (closures), and string/[]byte
//     conversions that copy
//   - time.Now calls (hot paths must take the already-sampled trigger
//     time, not re-read the clock)
//   - locked instructions: sync.Mutex and sync.RWMutex lock and unlock,
//     and the sync/atomic read-modify-writes (Add, CompareAndSwap, Swap,
//     And, Or), as functions or as methods of the atomic types. The fire
//     path's state belongs to the goroutine that fires the kernel, so it
//     needs none of them; atomic Load and Store stay allowed — they are
//     how the operator toggles reach the owner, and on amd64 a load is a
//     plain MOV
//   - map iteration (range over a map is not allocation-free in the
//     general case and its order nondeterminism has no place on a
//     fire path)
//   - indexing a map by a string key: it hashes the string on every
//     call, which a hot path avoids by resolving the name to a handle
//     (an interned ID, a pointer) once, off the hot path
//
// A finding on a provably cold line — a trap constructor on an error
// return, say — is suppressed by the line comment
//
//	//guardrails:coldpath
//
// The analysis is purely stdlib (go/ast + go/types); the driver is
// cmd/repolint.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MarkerDirective marks a function as hot-path in its doc comment.
const MarkerDirective = "//guardrails:hotpath"

// SuppressDirective suppresses findings on its line.
const SuppressDirective = "//guardrails:coldpath"

// Finding is one hot-path violation.
type Finding struct {
	// Pos locates the offending expression.
	Pos token.Position
	// Func is the enclosing marked function's name.
	Func string
	// What describes the violation.
	What string
}

// String renders the finding in file:line:col: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: hotpath: %s: %s", f.Pos, f.Func, f.What)
}

// Package is one type-checked package to analyze. Info must carry
// Types and Uses (Defs and Selections are not required).
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Analyze returns every hot-path violation in the package's marked
// functions, sorted by position.
func Analyze(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		cold := coldLines(pkg.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !marked(fn) {
				continue
			}
			v := &visitor{pkg: pkg, fn: funcName(fn), cold: cold}
			ast.Walk(v, fn.Body)
			out = append(out, v.findings...)
		}
	}
	sortFindings(out)
	return out
}

// sortFindings orders findings by position.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// HasMarked reports whether any function of the package is marked.
func HasMarked(pkg *Package) bool {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && marked(fn) {
				return true
			}
		}
	}
	return false
}

// marked reports whether the function's doc comment carries the
// hot-path directive.
func marked(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == MarkerDirective {
			return true
		}
	}
	return false
}

// funcName renders the function's name including a receiver qualifier.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// coldLines collects the lines carrying the suppression directive.
func coldLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), SuppressDirective) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

type visitor struct {
	pkg      *Package
	fn       string
	cold     map[int]bool
	findings []Finding
}

func (v *visitor) flag(n ast.Node, what string) {
	pos := v.pkg.Fset.Position(n.Pos())
	if v.cold[pos.Line] {
		return
	}
	v.findings = append(v.findings, Finding{Pos: pos, Func: v.fn, What: what})
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	switch e := n.(type) {
	case *ast.FuncLit:
		v.flag(e, "func literal allocates a closure")
		// Still walk the body: code inside the closure runs on the hot
		// path too.
		return v
	case *ast.CallExpr:
		v.call(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := e.X.(*ast.CompositeLit); ok {
				v.flag(e, "&composite literal escapes to the heap")
			}
		}
	case *ast.CompositeLit:
		if t := v.pkg.Info.TypeOf(e); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				v.flag(e, "slice literal allocates its backing array")
			case *types.Map:
				v.flag(e, "map literal allocates")
			}
		}
	case *ast.RangeStmt:
		if t := v.pkg.Info.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				v.flag(e, "map iteration (nondeterministic order, not allocation-free)")
			}
		}
	case *ast.IndexExpr:
		if t := v.pkg.Info.TypeOf(e.X); t != nil {
			if m, ok := t.Underlying().(*types.Map); ok && isString(m.Key().Underlying()) {
				v.flag(e, "map indexed by a string key hashes the string (resolve it to a handle off the hot path)")
			}
		}
	}
	return v
}

// call classifies one call expression: allocating builtins, time.Now,
// locked instructions, and copying string conversions.
func (v *visitor) call(e *ast.CallExpr) {
	switch fun := e.Fun.(type) {
	case *ast.Ident:
		if v.isBuiltin(fun) {
			switch fun.Name {
			case "make":
				v.flag(e, "make allocates")
			case "new":
				v.flag(e, "new allocates")
			case "append":
				v.flag(e, "append may grow and allocate")
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := v.pkg.Info.Uses[id].(*types.PkgName); ok &&
				pn.Imported().Path() == "time" && fun.Sel.Name == "Now" {
				v.flag(e, "time.Now on the hot path (use the sampled trigger time)")
			}
		}
		if fn, ok := v.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if what := lockedOp(fn); what != "" {
				v.flag(e, what)
			}
		}
	}
	// A conversion T(x) between string and byte/rune slices copies.
	if tv, ok := v.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
		to := tv.Type.Underlying()
		from := v.pkg.Info.TypeOf(e.Args[0])
		if from != nil && copyingConversion(from.Underlying(), to) {
			v.flag(e, "string conversion copies")
		}
	}
}

// lockedOp describes fn if calling it executes a locked instruction: a
// mutex lock or unlock, or an atomic read-modify-write. It returns ""
// for everything else, atomic loads and stores included.
func lockedOp(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	switch fn.Pkg().Path() {
	case "sync":
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			return "sync." + name + ": mutex operation on the hot path (its state is owned, not locked)"
		}
	case "sync/atomic":
		for _, rmw := range []string{"Add", "CompareAndSwap", "Swap", "And", "Or"} {
			if strings.HasPrefix(fn.Name(), rmw) {
				return "atomic." + name + ": atomic read-modify-write on the hot path (its state is owned, not locked)"
			}
		}
	}
	return ""
}

// isBuiltin reports whether the identifier resolves to a universe
// builtin (not a shadowing local).
func (v *visitor) isBuiltin(id *ast.Ident) bool {
	_, ok := v.pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// copyingConversion reports whether converting from → to copies the
// backing data (string ↔ []byte / []rune).
func copyingConversion(from, to types.Type) bool {
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

// isString reports whether the underlying type t is a string type.
func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
