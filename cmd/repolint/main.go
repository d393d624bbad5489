// Command repolint runs the repo's static analyses over the module:
//
//   - hotpath (tools/analyzers/hotpath): functions marked
//     //guardrails:hotpath must stay free of heap allocations, time.Now
//     calls, map iteration, string-keyed map indexing, and locked
//     instructions (mutex operations, atomic read-modify-writes), with
//     //guardrails:coldpath suppressing
//     findings on provably cold lines; the compiler's escape analysis
//     (`go build -gcflags=-m` on the packages that mark a function)
//     adds every heap move or escape inside a marked function
//   - reach (tools/analyzers/reach): every package-level declaration
//     under internal/ or in the module-root facade must be reachable
//     from cmd/, examples/, benchmark/ or tools/, and every field of a
//     live struct type must be both set and read by non-test code; what
//     only tests reach is deleted, or kept under //guardrails:testhook
//     with a reason
//
// Usage:
//
//	repolint ./...
//
// Every analyzer runs on every invocation. Reachability is a property
// of the whole module, so the driver always loads ./... and the
// patterns only select which packages' findings are printed.
//
// Exit status: 0 when clean, 1 on findings, 2 on operational errors.
// The implementation is stdlib-only: package metadata and dependency
// export data come from `go list -json -export -deps`, and the module's
// packages are parsed from source and type-checked with go/types.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"

	"guardrails/tools/analyzers/hotpath"
	"guardrails/tools/analyzers/reach"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: repolint packages...")
		os.Exit(2)
	}
	code, err := run(os.Stdout, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// listedPackage is the subset of `go list -json` output the driver
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Match      []string
	Module     *struct{ Path string }
}

// run analyzes the module, printing to w the findings in the packages
// matching patterns. It returns 1 when there are any, 0 when clean.
func run(w io.Writer, patterns []string) (int, error) {
	// ./... comes first so the whole module is loaded whatever the
	// patterns are: reach cannot see a root in a package it was not
	// given.
	pkgs, err := goList(append([]string{"./..."}, patterns...))
	if err != nil {
		return 0, err
	}

	// Dependency export data (compiled by -export) feeds the importer;
	// the module's own packages are type-checked from source so the
	// analyses see their ASTs.
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	findings := 0
	report := func(f fmt.Stringer) {
		fmt.Fprintln(w, f)
		findings++
	}
	var module string
	var loaded []*reach.Package
	selected := map[string]bool{} // by directory
	var hot []*hotpath.Package
	var hotPaths []string
	for _, p := range pkgs {
		if len(p.Match) == 0 || p.Module == nil {
			continue
		}
		pkg, err := load(fset, imp, p)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		module = p.Module.Path
		loaded = append(loaded, pkg)
		if !slices.ContainsFunc(p.Match, func(m string) bool { return slices.Contains(patterns, m) }) {
			continue
		}
		selected[p.Dir] = true
		hp := &hotpath.Package{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
		for _, f := range hotpath.Analyze(hp) {
			report(f)
		}
		if hotpath.HasMarked(hp) {
			hot = append(hot, hp)
			hotPaths = append(hotPaths, p.ImportPath)
		}
	}
	// The compiler's escape analysis, once over every selected package
	// that marks a function.
	if len(hot) > 0 {
		wd, err := os.Getwd()
		if err != nil {
			return 0, err
		}
		diags, err := hotpath.CompilerDiagnostics(wd, hotPaths)
		if err != nil {
			return 0, err
		}
		for _, hp := range hot {
			for _, f := range hotpath.Escapes(hp, diags) {
				report(f)
			}
		}
	}
	for _, f := range reach.Analyze(module, loaded) {
		if selected[filepath.Dir(f.Pos.Filename)] {
			report(f)
		}
	}
	if findings > 0 {
		fmt.Fprintf(w, "repolint: %d finding(s)\n", findings)
		return 1, nil
	}
	return 0, nil
}

// goList shells out to the go tool for package metadata plus compiled
// export data of every dependency.
func goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load parses and type-checks one module package from source.
func load(fset *token.FileSet, imp types.Importer, p *listedPackage) (*reach.Package, error) {
	var files []*ast.File
	names := append([]string{}, p.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},

		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type checking: %v", err)
	}
	return &reach.Package{Fset: fset, Files: files, Info: info, Types: tpkg}, nil
}
