package runner

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestRunnerImportsNoEngine pins the DayEngine seam: the loop runs days,
// not engines, so no non-test file of this package may import an engine
// package. Engines implement DayEngine from their side and are selected in
// internal/scenario.
func TestRunnerImportsNoEngine(t *testing.T) {
	banned := map[string]bool{"puffer/internal/fleet": true, "puffer/internal/dist": true}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s: the daily loop must not know its engines", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no non-test Go files to check")
	}
}
