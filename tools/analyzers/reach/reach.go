// Package reach is a whole-module reachability analysis over
// type-checked Go source: a package-level declaration under internal/
// that only _test.go files can reach is not part of the system, and
// this pass says so. Documentation that lists such a declaration as a
// mechanism, and tests that keep it green, describe code no binary
// runs.
//
// Roots are what a user or a binary can start from:
//
//   - every declaration of a package outside internal/ (the main
//     packages under cmd/ and examples/, benchmark/, tools/), except
//     the module-root facade package
//   - the facade's exported API, followed through its type aliases:
//     every exported method of a type the API names, the types of that
//     type's exported (or embedded) fields, and the types in those
//     methods' signatures, transitively
//   - init functions and blank (var _ = ...) declarations
//
// From the roots the pass follows every identifier a live declaration
// mentions. Calls through interfaces are not resolved: a method of a
// live type is kept whenever its name is a method name of any
// interface the module declares or can import (error, fmt.Stringer,
// sort.Interface, json.Marshaler, ...). _test.go files are ignored
// whoever hands them in, so a test can never make its subject live.
//
// A short accessor that a kept test in another package genuinely needs
// may stay under the doc directive
//
//	//guardrails:testhook <reason>
//
// which makes the declaration a root. The directive without a reason,
// on a declaration the roots reach anyway, or beyond the module's
// MaxHooks-th is itself a finding: past that count the rule is wrong,
// not the code.
//
// Packages are type-checked one at a time against export data, so one
// declaration is a different types.Object in every importer's
// universe; the pass keys objects by qualified name instead. It is
// purely stdlib (go/ast + go/types); the driver is cmd/repolint.
package reach

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HookDirective keeps a test-only declaration, given a reason.
const HookDirective = "//guardrails:testhook"

// MaxHooks is how many HookDirective uses the module may carry.
const MaxHooks = 10

// Finding is one unreachable declaration or misused directive.
type Finding struct {
	// Pos locates the declaration.
	Pos token.Position
	// Decl is its qualified name: pkg.Name or pkg.Type.Method.
	Decl string
	// What describes the problem.
	What string
}

// String renders the finding in file:line:col: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: reach: %s: %s", f.Pos, f.Decl, f.What)
}

// Package is one type-checked package of the module. Info must carry
// Defs, Uses and Types.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// decl is one package-level declaration (or method).
type decl struct {
	key     string
	pos     token.Position
	refs    []string // keys of the package-level objects it mentions
	recv    string   // receiver type's key, for a method
	name    string
	checked bool // under internal/: reported when unreachable
	hooked  bool // carries HookDirective
}

type analysis struct {
	module string
	decls  map[string]*decl
	order  []*decl            // declaration order, for stable output
	byRecv map[string][]*decl // methods by receiver type key
	iface  map[string]bool    // method names of every visible interface
	live   map[string]bool
	work   []string
	seen   map[*types.Named]bool // escape's visited set
}

// Analyze returns the declarations under module/internal/ that the
// roots do not reach, plus directive misuse, sorted by position. pkgs
// must be the whole module: a missing package takes its roots along.
func Analyze(module string, pkgs []*Package) []Finding {
	a := &analysis{
		module: module,
		decls:  map[string]*decl{},
		byRecv: map[string][]*decl{},
		// The interface methods no package scope shows: the universe's
		// error, and the inline interfaces errors.Is, As and Unwrap
		// assert on.
		iface: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
		live:  map[string]bool{},
		seen:  map[*types.Named]bool{},
	}
	var findings []Finding
	imported := map[*types.Package]bool{}
	for _, p := range pkgs {
		findings = append(findings, a.collect(p)...)
		a.importedInterfaces(p.Types, imported)
	}
	for _, p := range pkgs {
		if p.Types.Path() == module {
			a.facade(p.Types)
		}
	}
	a.drain()

	// Hooks become roots only now, so one on a declaration the real
	// roots already reach shows up as stale.
	hooks := 0
	for _, d := range a.order {
		if !d.hooked {
			continue
		}
		if hooks++; hooks > MaxHooks {
			findings = append(findings, Finding{d.pos, d.key, fmt.Sprintf(
				"testhook directive %d of at most %d: delete test-only code rather than marking it", hooks, MaxHooks)})
		}
		if a.live[d.key] {
			findings = append(findings, Finding{d.pos, d.key, "testhook directive on a declaration the roots already reach"})
		}
		a.mark(d.key)
	}
	a.drain()

	for _, d := range a.order {
		if d.checked && !a.live[d.key] {
			findings = append(findings, Finding{d.pos, d.key, "reachable only from tests (or from nothing)"})
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		x, y := findings[i].Pos, findings[j].Pos
		if x.Filename != y.Filename {
			return x.Filename < y.Filename
		}
		return x.Line < y.Line
	})
	return findings
}

// collect records the package's declarations and what each mentions,
// and marks the ones that are roots by position alone.
func (a *analysis) collect(p *Package) []Finding {
	var findings []Finding
	path := p.Types.Path()
	checked := strings.HasPrefix(path, a.module+"/internal/")
	wholeRoot := !checked && path != a.module
	for _, file := range p.Files {
		if strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		a.interfaceLiterals(p, file)
		add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup) {
			d := &decl{pos: p.Fset.Position(id.Pos()), name: id.Name, checked: checked}
			obj := p.Info.Defs[id]
			if obj != nil {
				d.key = key(obj)
			}
			root := wholeRoot || path == a.module && id.IsExported()
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if named := namedOf(recv.Type()); named != nil {
						d.recv = key(named.Obj())
					}
				} else if id.Name == "init" {
					root = true
				}
			}
			if d.key == "" {
				// init and blank declarations have no name to be
				// reached by; they run, or are checked, regardless.
				d.key = fmt.Sprintf("%s.%s@%d", path, id.Name, id.Pos())
				root = true
			}
			ast.Inspect(node, func(n ast.Node) bool {
				if use, ok := n.(*ast.Ident); ok {
					if k := key(p.Info.Uses[use]); k != "" && k != d.key {
						d.refs = append(d.refs, k)
					}
				}
				return true
			})
			if reason, ok := hookReason(doc); ok {
				d.hooked = true
				if reason == "" {
					findings = append(findings, Finding{d.pos, d.key, "testhook directive needs a reason"})
				}
			}
			a.decls[d.key] = d
			a.order = append(a.order, d)
			if d.recv != "" {
				a.byRecv[d.recv] = append(a.byRecv[d.recv], d)
			}
			if root {
				a.mark(d.key)
			}
		}
		for _, gd := range file.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				add(gd.Name, gd, gd.Doc)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, specDoc(s.Doc, gd))
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s, specDoc(s.Doc, gd))
						}
					}
				}
			}
		}
	}
	return findings
}

// specDoc is a spec's own doc comment, or its declaration group's: an
// ungrouped "type T ..." carries its doc on the group.
func specDoc(doc *ast.CommentGroup, group *ast.GenDecl) *ast.CommentGroup {
	if doc != nil {
		return doc
	}
	return group.Doc
}

// hookReason finds HookDirective in a doc comment and returns what
// follows it.
func hookReason(doc *ast.CommentGroup) (reason string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if rest, found := strings.CutPrefix(c.Text, HookDirective); found {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// key names a package-level object or a concrete method the same way
// in every importer's universe; anything else (locals, fields,
// builtins, interface methods) has no key.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg()
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if pkg.Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}

// namedOf strips one pointer and any alias off a receiver type.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// interfaceLiterals adds the method names of every interface type
// written in the file, named or inline.
func (a *analysis) interfaceLiterals(p *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.InterfaceType); ok {
			if it, ok := p.Info.TypeOf(lit).(*types.Interface); ok {
				a.interfaceMethods(it)
			}
		}
		return true
	})
}

func (a *analysis) interfaceMethods(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		a.iface[it.Method(i).Name()] = true
	}
}

// importedInterfaces adds the method names of every named interface in
// the packages pkg imports, transitively: a type handed to fmt.Fprintf
// needs its Write though its package never imports io.
func (a *analysis) importedInterfaces(pkg *types.Package, done map[*types.Package]bool) {
	for _, imp := range pkg.Imports() {
		if done[imp] {
			continue
		}
		done[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					a.interfaceMethods(it)
				}
			}
		}
		a.importedInterfaces(imp, done)
	}
}

// facade roots everything a user of the module-root package can name:
// its exported objects and whatever their types expose.
func (a *analysis) facade(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			a.escape(obj.Type())
		}
	}
}

// escape marks a type that is visible through the facade, with every
// exported method and the types those methods and its exported fields
// mention.
func (a *analysis) escape(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		obj := t.Obj()
		if a.seen[t] || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), a.module) {
			return
		}
		a.seen[t] = true
		a.mark(key(obj))
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				a.mark(key(m))
				a.escape(m.Type())
			}
		}
		a.escape(t.Underlying())
	case *types.Pointer:
		a.escape(t.Elem())
	case *types.Slice:
		a.escape(t.Elem())
	case *types.Array:
		a.escape(t.Elem())
	case *types.Chan:
		a.escape(t.Elem())
	case *types.Map:
		a.escape(t.Key())
		a.escape(t.Elem())
	case *types.Signature:
		a.escape(t.Params())
		a.escape(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			a.escape(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				a.escape(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			a.escape(t.Method(i).Type())
		}
	}
}

func (a *analysis) mark(k string) {
	if k != "" && !a.live[k] {
		a.live[k] = true
		a.work = append(a.work, k)
	}
}

// drain propagates liveness: a live declaration keeps what it
// mentions, and a live type keeps its interface-named methods.
func (a *analysis) drain() {
	for len(a.work) > 0 {
		k := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		d := a.decls[k]
		if d == nil {
			continue
		}
		for _, r := range d.refs {
			a.mark(r)
		}
		for _, m := range a.byRecv[k] {
			if a.iface[m.name] {
				a.mark(m.key)
			}
		}
	}
}
