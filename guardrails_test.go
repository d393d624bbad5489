package guardrails

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const demoSpec = `
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}`

func TestSystemEndToEnd(t *testing.T) {
	sys := NewSystem()
	sys.Store.Save("ml_enabled", 1)
	sys.Store.Save("false_submit_rate", 0.01)
	mons, err := sys.LoadGuardrails(demoSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mons) != 1 || mons[0].Name() != "low-false-submit" {
		t.Fatalf("monitors = %v", mons)
	}
	sys.Kernel.RunUntil(3 * Second)
	if sys.Store.Load("ml_enabled") != 1 {
		t.Error("guardrail acted while healthy")
	}
	sys.Store.Save("false_submit_rate", 0.2)
	sys.Kernel.RunUntil(5 * Second)
	if sys.Store.Load("ml_enabled") != 0 {
		t.Error("guardrail did not act")
	}
	s := mons[0].Stats()
	if s.Evals == 0 || s.Violations == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRuntimeActionComponentsExposed(t *testing.T) {
	sys := NewSystem()
	if sys.Runtime.Log == nil || sys.Runtime.Policies == nil ||
		sys.Runtime.Retrainer == nil || sys.Runtime.DeadLetter == nil {
		t.Error("action components not wired")
	}
}

// TestDocsNameOnlyFacadeAPI: every guardrails.<Ident> that README.md and
// DESIGN.md show is declared by the facade, so a snippet copied out of
// the docs names API that exists.
func TestDocsNameOnlyFacadeAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declared[id.Name] = true
						}
					}
				}
			}
		}
	}
	ref := regexp.MustCompile(`\bguardrails\.([A-Z][A-Za-z0-9_]*)`)
	seen := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(text, -1) {
			seen++
			if !declared[string(m[1])] {
				t.Errorf("%s names guardrails.%s, which the facade does not declare", doc, m[1])
			}
		}
	}
	if seen == 0 {
		t.Fatal("the docs name no facade identifier; the check is vacuous")
	}
}
