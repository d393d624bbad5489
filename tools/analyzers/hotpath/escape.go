package hotpath

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The syntactic pass sees what a line says, not what the compiler does
// with it: `args := [5]float64{...}; env.Helper(&args)` reads as a stack
// array, yet passing its address through an interface moves it to the
// heap. So the escape check asks the compiler. `go build -gcflags=-m`
// prints a diagnostic for every variable it moves to the heap and every
// value that escapes; one inside a marked function, and not on a
// coldpath line, is a finding.

// Diagnostic is one line of the compiler's -m output.
type Diagnostic struct {
	File      string // absolute, cleaned
	Line, Col int
	Msg       string
}

// CompilerDiagnostics runs `go build -gcflags=-m` on the packages in
// dir and returns its diagnostics. The go tool replays a cached
// compilation's output, so a warm run costs no compile.
func CompilerDiagnostics(dir string, pkgs []string) ([]Diagnostic, error) {
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	return ParseDiagnostics(out.Bytes(), dir), nil
}

// ParseDiagnostics parses `file:line:col: message` lines, resolving
// relative file names against dir; other lines (the `# package`
// headers) are skipped.
func ParseDiagnostics(out []byte, dir string) []Diagnostic {
	var diags []Diagnostic
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), ":", 4)
		if len(parts) != 4 {
			continue
		}
		line, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		file := parts[0]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		diags = append(diags, Diagnostic{File: filepath.Clean(file), Line: line, Col: col,
			Msg: strings.TrimSpace(parts[3])})
	}
	return diags
}

// Escapes returns a finding for every diagnostic that reports a heap
// move or escape inside one of pkg's marked functions, except on a
// coldpath line.
func Escapes(pkg *Package, diags []Diagnostic) []Finding {
	type span struct {
		from, to int
		fn       string
	}
	type fileInfo struct {
		spans []span
		cold  map[int]bool
	}
	files := map[string]*fileInfo{}
	for _, file := range pkg.Files {
		fi := &fileInfo{cold: coldLines(pkg.Fset, file)}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && marked(fn) {
				fi.spans = append(fi.spans, span{
					from: pkg.Fset.Position(fn.Body.Lbrace).Line,
					to:   pkg.Fset.Position(fn.Body.Rbrace).Line,
					fn:   funcName(fn),
				})
			}
		}
		if len(fi.spans) > 0 {
			files[filepath.Clean(pkg.Fset.Position(file.Pos()).Filename)] = fi
		}
	}
	var out []Finding
	for _, d := range diags {
		if !strings.HasPrefix(d.Msg, "moved to heap:") && !strings.HasSuffix(d.Msg, "escapes to heap") {
			continue
		}
		fi := files[d.File]
		if fi == nil || fi.cold[d.Line] {
			continue
		}
		for _, s := range fi.spans {
			if s.from <= d.Line && d.Line <= s.to {
				out = append(out, Finding{
					Pos:  token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
					Func: s.fn,
					What: "compiler: " + d.Msg,
				})
				break
			}
		}
	}
	sortFindings(out)
	return out
}
