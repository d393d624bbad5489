// Package reach is a whole-module reachability analysis over
// type-checked Go source: a package-level declaration under internal/
// or in the module-root package that only _test.go files can reach is
// not part of the system, and neither is a struct field that no
// non-test code sets or reads. This pass says so. Documentation that
// lists such a declaration as a mechanism, and tests that keep it
// green, describe code no binary runs.
//
// Roots are what a binary can start from:
//
//   - every declaration of a package outside internal/ other than the
//     module-root package: the main packages under cmd/ and examples/,
//     benchmark/, tools/
//   - init functions and blank (var _ = ...) declarations
//
// The module-root package is checked like internal/: an export of it
// that no root names is a finding, however public it looks.
//
// From the roots the pass follows every identifier a live declaration
// mentions. Calls through interfaces are not resolved: a method of a
// live type is kept whenever the type, or a pointer to it, implements
// an interface that has the method and that some package of the module
// can see where it can see the type — one the module declares or
// writes inline, one it imports (error, fmt.Stringer, sort.Interface,
// json.Marshaler, ...), or one errors.Is, As and Unwrap assert on. A
// method that merely shares an interface method's name is not kept. A
// generic type implements nothing before it is instantiated, so for it
// the method names alone decide. A constant is live when any
// constant of its declaration group is: deleting one would renumber an
// iota group. _test.go files are ignored whoever hands them in, so a
// test can never make its subject live.
//
// Fields of the named struct types a checked package declares are
// followed through the live declarations. A field is set by a
// composite-literal element, by the left side of an assignment or
// ++/-- (through index and selector chains: x.f[i] = v and x.f.g = v
// set f), by taking its address, and by calling a method on it; every
// other mention reads it. Assigning a constant to a field inside a
// method of its own type, under a condition comparing that field with
// a constant (if o.N == 0 { o.N = 8 }), fills in a default; it is not
// a setting. A live type's field that is never set holds its zero
// value (or its default) in every run, and one never read is dead
// weight; both are findings. Every field of a type used as a map key or
// compared with == is read. Embedded fields, fields with a struct tag,
// and the fields of types whose values are handed to encoding/binary,
// encoding/json or reflect are exempt, and fields of anonymous struct
// types are out of scope.
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

// Finding is one unreachable declaration, unused field or misused
// directive.
type Finding struct {
	// Pos locates the declaration.
	Pos token.Position
	// Decl is its qualified name: pkg.Name, pkg.Type.Method or
	// pkg.Type.Field.
	Decl string
	// What describes the problem.
	What string
}

// String renders the finding in file:line:col: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: reach: %s: %s", f.Pos, f.Decl, f.What)
}

// Package is one type-checked package of the module. Info must carry
// Defs, Uses, Types and Selections.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// decl is one package-level declaration (or method).
type decl struct {
	key      string
	pos      token.Position
	refs     []string // keys of the package-level objects it mentions
	recv     string   // receiver type's key, for a method
	name     string
	checked  bool     // in a checked package: reported when unreachable
	hooked   bool     // carries HookDirective
	sets     []string // field keys it sets
	reads    []string // field keys it reads
	defaults []string // field keys it gives a constant default
}

// field is one field of a named struct type in a checked package.
type field struct {
	key   string // pkg.Type.Field
	owner string // the type's key
	pos   token.Position
}

type analysis struct {
	module string
	decls  map[string]*decl
	order  []*decl            // declaration order, for stable output
	byRecv map[string][]*decl // methods by receiver type key
	kept   map[string]bool    // methods by which a type implements a visible interface
	live   map[string]bool
	work   []string

	fields  []*field
	readAll map[string]bool // type keys compared or used as map keys
	exempt  map[string]bool // type keys handed to encoding or reflection
}

// Analyze returns the checked declarations and fields the roots do not
// reach, plus directive misuse, sorted by position. pkgs must be the
// whole module: a missing package takes its roots along.
func Analyze(module string, pkgs []*Package) []Finding {
	a := &analysis{
		module:  module,
		decls:   map[string]*decl{},
		byRecv:  map[string][]*decl{},
		kept:    map[string]bool{},
		live:    map[string]bool{},
		readAll: map[string]bool{},
		exempt:  map[string]bool{},
	}
	var findings []Finding
	for _, p := range pkgs {
		findings = append(findings, a.collect(p)...)
		a.implemented(p)
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
	findings = append(findings, a.deadFields()...)
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
	checked := path == a.module || strings.HasPrefix(path, a.module+"/internal/")
	for _, file := range p.Files {
		if strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		a.wholeStructUses(p, file)
		add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup) *decl {
			d := &decl{pos: p.Fset.Position(id.Pos()), name: id.Name, checked: checked}
			obj := p.Info.Defs[id]
			if obj != nil {
				d.key = key(obj)
			}
			root := !checked
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
			(&fieldWalker{p: p, d: d}).walk(node)
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
			return d
		}
		for _, gd := range file.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				add(gd.Name, gd, gd.Doc)
			case *ast.GenDecl:
				var group []*decl
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, specDoc(s.Doc, gd))
						if checked {
							a.structFields(p, s)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							group = append(group, add(id, s, specDoc(s.Doc, gd)))
						}
					}
				}
				if gd.Tok == token.CONST {
					// One live constant keeps its whole group.
					for _, d := range group {
						for _, other := range group {
							d.refs = append(d.refs, other.key)
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

// structOf is the named struct type behind t (through one pointer), or
// nil for anything else.
func structOf(t types.Type) (*types.Named, *types.Struct) {
	named := namedOf(t)
	if named == nil {
		return nil, nil
	}
	st, _ := named.Underlying().(*types.Struct)
	if st == nil {
		return nil, nil
	}
	return named, st
}

// errorsInterfaces are the interfaces no package scope shows: the
// universe's error, and the inline ones errors.Is, As and Unwrap assert
// on.
var errorsInterfaces = func() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, params, results []types.Type) *types.Interface {
		vars := func(ts []types.Type) *types.Tuple {
			vs := make([]*types.Var, len(ts))
			for i, t := range ts {
				vs[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vs...)
		}
		fn := types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false))
		return types.NewInterfaceType([]*types.Func{fn}, nil).Complete()
	}
	boolType, anyType := types.Typ[types.Bool], types.Universe.Lookup("any").Type()
	return []*types.Interface{
		errType.Underlying().(*types.Interface),
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{boolType}),
		method("As", []types.Type{anyType}, []types.Type{boolType}),
	}
}()

// implemented adds to a.kept the methods by which a named type of the
// module implements an interface, both as p sees them: p's own and its
// transitive imports' named types and interfaces, the interfaces p's
// files write inline, and errorsInterfaces. A conversion of a value to
// an interface happens in some package that sees both, so every
// package's view together finds every such method.
func (a *analysis) implemented(p *Package) {
	var named []*types.Named
	ifaces := append([]*types.Interface(nil), errorsInterfaces...)
	done := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if done[pkg] {
			return
		}
		done[pkg] = true
		inModule := pkg.Path() == a.module || strings.HasPrefix(pkg.Path(), a.module+"/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if n, ok := tn.Type().(*types.Named); ok && inModule {
				named = append(named, n)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	visit(p.Types)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.InterfaceType); ok {
				if it, ok := p.Info.TypeOf(lit).(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
			return true
		})
	}

	// An interface is implemented only by a type with its first method,
	// so each type asks only the interfaces that start with one of its
	// method names.
	byFirst := map[string][]*types.Interface{}
	for _, it := range ifaces {
		if it.NumMethods() > 0 && it.IsMethodSet() {
			first := it.Method(0).Name()
			byFirst[first] = append(byFirst[first], it)
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byFirst[ms.At(i).Obj().Name()] {
				if n.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						a.kept[key(fn)] = true
					}
				}
			}
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
// mentions, and a live type keeps the methods by which it implements a
// visible interface.
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
			if a.kept[m.key] {
				a.mark(m.key)
			}
		}
	}
}

// structFields records the fields the field rules check: the named,
// untagged fields of a struct type declared at package level.
func (a *analysis) structFields(p *Package, s *ast.TypeSpec) {
	st, ok := s.Type.(*ast.StructType)
	if !ok || s.Assign.IsValid() {
		return
	}
	owner := key(p.Info.Defs[s.Name])
	if owner == "" {
		return
	}
	for _, f := range st.Fields.List {
		if f.Tag != nil {
			continue
		}
		for _, id := range f.Names {
			if id.Name != "_" {
				a.fields = append(a.fields, &field{key: owner + "." + id.Name, owner: owner, pos: p.Fset.Position(id.Pos())})
			}
		}
	}
}

// wholeStructUses records the struct types whose every field the file
// reads at once (map keys and == / != operands) and those it hands to
// encoding/binary, encoding/json or reflect.
func (a *analysis) wholeStructUses(p *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType:
			if m, ok := p.Info.TypeOf(n).(*types.Map); ok {
				a.structsIn(m.Key(), a.readAll, false)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				a.structsIn(p.Info.TypeOf(n.X), a.readAll, false)
			}
		case *ast.CallExpr:
			if obj := calleeObj(p.Info, n.Fun); obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "encoding/binary", "encoding/json", "reflect":
					for _, arg := range n.Args {
						a.structsIn(p.Info.TypeOf(arg), a.exempt, true)
					}
				}
			}
		}
		return true
	})
}

// calleeObj is the function or method a call expression names.
func calleeObj(info *types.Info, fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// structsIn adds to set the named struct types a value of type t holds
// by value (arrays and nested struct fields; through pointers, slices
// and maps too when deep), and so compares, hashes or encodes.
func (a *analysis) structsIn(t types.Type, set map[string]bool, deep bool) {
	seen := map[types.Type]bool{}
	var visit func(types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := types.Unalias(t).(type) {
		case *types.Named:
			if st, ok := u.Underlying().(*types.Struct); ok {
				if k := key(u.Origin().Obj()); k != "" {
					set[k] = true
				}
				visit(st)
			} else if deep {
				visit(u.Underlying())
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				visit(u.Field(i).Type())
			}
		case *types.Array:
			visit(u.Elem())
		case *types.Pointer:
			if deep {
				visit(u.Elem())
			}
		case *types.Slice:
			if deep {
				visit(u.Elem())
			}
		case *types.Map:
			if deep {
				visit(u.Key())
				visit(u.Elem())
			}
		}
	}
	visit(t)
}

// deadFields reports the fields of live types that the live
// declarations never set, only give their default, or never read.
func (a *analysis) deadFields() []Finding {
	set, read, dflt := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, d := range a.order {
		if !a.live[d.key] {
			continue
		}
		for _, k := range d.sets {
			set[k] = true
		}
		for _, k := range d.reads {
			read[k] = true
		}
		for _, k := range d.defaults {
			dflt[k] = true
		}
	}
	var findings []Finding
	for _, f := range a.fields {
		if !a.live[f.owner] || a.exempt[f.owner] {
			continue
		}
		var what string
		switch isRead := read[f.key] || a.readAll[f.owner]; {
		case !set[f.key] && dflt[f.key] && isRead:
			what = "field only ever holds its default: make it a constant"
		case !set[f.key] && !dflt[f.key] && isRead:
			what = "field no non-test code sets: it always holds its zero value"
		case !isRead:
			what = "field no non-test code reads"
		default:
			continue
		}
		findings = append(findings, Finding{f.pos, f.key, what})
	}
	return findings
}

// fieldWalker sorts the field selectors in one declaration into sets,
// defaults and reads.
type fieldWalker struct {
	p      *Package
	d      *decl
	guards []string // fields the enclosing if/case conditions compare with a constant
}

// fieldKey names the field a selector expression selects, or "" when
// it selects something else or a field of an unnamed struct.
func (w *fieldWalker) fieldKey(sel *ast.SelectorExpr) string {
	s := w.p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	// Walk the embedded fields the selection is promoted through to
	// the struct that declares the field.
	t := s.Recv()
	idx := s.Index()
	for _, ix := range idx[:len(idx)-1] {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(ix).Type()
	}
	named, _ := structOf(t)
	if named == nil {
		return ""
	}
	if k := key(named.Obj()); k != "" {
		return k + "." + s.Obj().Name()
	}
	return ""
}

func (w *fieldWalker) walk(n ast.Node) {
	ast.Inspect(n, w.visit)
}

func (w *fieldWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			return true
		}
		for i, lhs := range n.Lhs {
			constant := n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && w.p.Info.Types[n.Rhs[i]].Value != nil
			w.lhs(lhs, constant, false)
		}
		for _, rhs := range n.Rhs {
			w.walk(rhs)
		}
		return false
	case *ast.IncDecStmt:
		w.lhs(n.X, false, false)
		return false
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					w.lhs(e, false, false)
				}
			}
			w.walk(n.X)
			w.walk(n.Body)
			return false
		}
	case *ast.IfStmt:
		for _, e := range []ast.Node{n.Init, n.Cond} {
			if e != nil {
				w.walk(e)
			}
		}
		w.guarded(n.Body, n.Cond)
		if n.Else != nil {
			w.walk(n.Else)
		}
		return false
	case *ast.SwitchStmt:
		if n.Tag != nil {
			return true
		}
		if n.Init != nil {
			w.walk(n.Init)
		}
		for _, c := range n.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.walk(e)
			}
			for _, st := range cc.Body {
				w.guarded(st, cc.List...)
			}
		}
		return false
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.lhs(n.X, false, true)
			return false
		}
	case *ast.SliceExpr:
		// Slicing an array field writes through it as freely as taking
		// its address.
		if _, ok := types.Unalias(w.p.Info.TypeOf(n.X)).Underlying().(*types.Array); ok {
			w.lhs(n.X, false, true)
			for _, e := range []ast.Expr{n.Low, n.High, n.Max} {
				if e != nil {
					w.walk(e)
				}
			}
			return false
		}
	case *ast.CompositeLit:
		named, st := structOf(w.p.Info.TypeOf(n))
		if st == nil {
			return true
		}
		owner := key(named.Obj())
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok && owner != "" {
					w.d.sets = append(w.d.sets, owner+"."+id.Name)
				}
				w.walk(kv.Value)
				continue
			}
			if owner != "" && i < st.NumFields() {
				w.d.sets = append(w.d.sets, owner+"."+st.Field(i).Name())
			}
			w.walk(elt)
		}
		return false
	case *ast.SelectorExpr:
		if s := w.p.Info.Selections[n]; s != nil && s.Kind() != types.FieldVal {
			// A method called on a field may change it.
			w.lhs(n.X, false, true)
			return false
		}
		if k := w.fieldKey(n); k != "" {
			w.d.reads = append(w.d.reads, k)
		}
	}
	return true
}

// guarded walks body with the fields that conds compare with a
// constant (o.N == 0, o.N <= 0) as guards: a constant assigned to one
// of them there is the fill-in-a-default idiom.
func (w *fieldWalker) guarded(body ast.Node, conds ...ast.Expr) {
	n := len(w.guards)
	for _, c := range conds {
		ast.Inspect(c, func(e ast.Node) bool {
			b, ok := e.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch b.Op {
			case token.EQL, token.LEQ, token.LSS:
				for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
					if sel, ok := ast.Unparen(pair[0]).(*ast.SelectorExpr); ok && w.p.Info.Types[pair[1]].Value != nil {
						if k := w.fieldKey(sel); k != "" {
							w.guards = append(w.guards, k)
						}
					}
				}
			}
			return true
		})
	}
	w.walk(body)
	w.guards = w.guards[:n]
}

// isDefault says whether a constant assigned to field k here fills in
// a default: inside a method of k's own type, under a condition that
// compares k with a constant.
func (w *fieldWalker) isDefault(k string) bool {
	if w.d.recv == "" || k[:strings.LastIndexByte(k, '.')] != w.d.recv {
		return false
	}
	for _, g := range w.guards {
		if g == k {
			return true
		}
	}
	return false
}

// lhs walks an expression that is written through: every field in its
// selector/index chain is set, or, for a constant filling in a default,
// defaulted. alsoRead marks the chain read as well (an address taken,
// a method called).
func (w *fieldWalker) lhs(e ast.Expr, constant, alsoRead bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		w.lhs(e.X, constant, alsoRead)
	case *ast.StarExpr:
		w.lhs(e.X, false, alsoRead)
	case *ast.IndexExpr:
		w.lhs(e.X, false, alsoRead)
		w.walk(e.Index)
	case *ast.SelectorExpr:
		if s := w.p.Info.Selections[e]; s == nil || s.Kind() != types.FieldVal {
			w.walk(e)
			return
		}
		// A field of an unnamed struct has no key, but the chain that
		// holds it is written all the same.
		if k := w.fieldKey(e); k != "" {
			if constant && w.isDefault(k) {
				w.d.defaults = append(w.d.defaults, k)
			} else {
				w.d.sets = append(w.d.sets, k)
			}
			if alsoRead {
				w.d.reads = append(w.d.reads, k)
			}
		}
		w.lhs(e.X, false, alsoRead)
	default:
		w.walk(e)
	}
}
