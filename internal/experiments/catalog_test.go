package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"strings"
	"testing"
)

// generatorName matches the exported entry points the evaluation is made
// of: every figure, table, extension and raw summary.
var generatorName = regexp.MustCompile(`^(Fig|Table|Ext)[A-Z0-9]\w*$|^\w+Summary$`)

// TestCatalogComplete parses the package and fails if an exported
// generator is missing from Catalog or listed twice. The catalog is what
// RunAll renders, warmAll prefetches and the determinism suite sweeps, so
// a figure left out of it would silently drop out of all three.
func TestCatalogComplete(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, f := range pkgs["experiments"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && generatorName.MatchString(fn.Name.Name) {
				declared[fn.Name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no generators: the parse or the name pattern is broken")
	}

	listed := make(map[string]int)
	for _, f := range Catalog {
		listed[f.Name]++
		if !declared[f.Name] {
			t.Errorf("Catalog lists %q, which is not an exported generator of the package", f.Name)
		}
		if f.Section == "" || f.Tables == nil {
			t.Errorf("Catalog entry %q lacks a section or a generator", f.Name)
		}
	}
	for name := range declared {
		switch n := listed[name]; {
		case n == 0:
			t.Errorf("generator %s is missing from Catalog: it would be left out of the report, the warm set and the determinism sweep", name)
		case n > 1:
			t.Errorf("generator %s is listed %d times in Catalog", name, n)
		}
	}
}

// TestCatalogSectionsContiguous: RunAll prints a heading whenever the
// section changes, so a section split in two would print twice.
func TestCatalogSectionsContiguous(t *testing.T) {
	closed := make(map[string]bool)
	prev := ""
	for _, f := range Catalog {
		if f.Section != prev {
			if closed[f.Section] {
				t.Errorf("section %q resumes at %s after another section intervened", f.Section, f.Name)
			}
			closed[prev] = true
			prev = f.Section
		}
	}
}
