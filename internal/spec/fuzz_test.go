package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// render prints a file's declarations in canonical source form.
func render(f *File) string {
	var b strings.Builder
	for _, d := range f.Features {
		b.WriteString(d.String() + "\n")
	}
	for _, d := range f.Properties {
		b.WriteString(d.String() + "\n")
	}
	for _, g := range f.Guardrails {
		b.WriteString(g.String())
	}
	return b.String()
}

// FuzzParse: the lexer and parser never panic on arbitrary text, and
// any text they and Check accept survives a round trip — its canonical
// rendering parses, checks, and renders to itself, so the AST the
// analyzers and the semantic diff see is the AST the text denotes.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "testdata", "*.grail"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed specs found: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil || Check(file) != nil {
			return
		}
		text := render(file)
		again, err := Parse(text)
		if err == nil {
			err = Check(again)
		}
		if err != nil {
			t.Fatalf("canonical rendering of accepted text is rejected: %v\n--- source ---\n%s\n--- rendering ---\n%s", err, src, text)
		}
		if got := render(again); got != text {
			t.Fatalf("rendering is not a fixed point\n--- first ---\n%s\n--- second ---\n%s", text, got)
		}
	})
}
