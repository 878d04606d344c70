package cliquemap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// maxKnobs caps the exported fields of the structs that configure the
// program: every knob doubles the configurations a test or a figure could
// be asked to cover, and one that no figure, test, paper section or
// deployment needs goes. Lower the number when the count shrinks; never
// raise it.
const maxKnobs = 126

// TestKnobRatchet counts the exported fields of the structs named
// *Options, *Config, *Params and *CostModel in the non-test Go outside
// bench/ (its own module, pinned to what it names), and fails above
// maxKnobs, printing each struct's count.
func TestKnobRatchet(t *testing.T) {
	counts := map[string]int{}
	total := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = f.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !isKnobStruct(ts.Name.Name) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						counts[pkg+"."+ts.Name.Name]++
						total++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%3d %s", counts[name], name)
	}
	if total > maxKnobs {
		t.Errorf("%d exported option fields, ceiling %d: justify the new knob by a figure, a test or the paper and delete one nothing needs", total, maxKnobs)
	}
}

func isKnobStruct(name string) bool {
	for _, suffix := range []string{"Options", "Config", "Params", "CostModel"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}
