package puffer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fileWriteCalls are the os functions that create, fill or replace a file
// by hand. Outside internal/wire, a whole file goes through wire.WriteFile
// (and a directory of them through wire.Rename), which owns the temp name,
// the fsyncs and the cleanup.
var fileWriteCalls = map[string]bool{
	"WriteFile": true, "Rename": true, "Create": true, "CreateTemp": true, "OpenFile": true,
}

// fileWriteAllowlist names, as pkg.Func, the production functions that may
// still call one of fileWriteCalls, one reason each. An entry that makes no
// such call fails the test, so the list cannot go stale.
var fileWriteAllowlist = map[string]string{
	"obs.StartCPUProfile": "streams: pprof writes the profile for as long as the run lasts, so there is no whole file to commit",
}

// TestWholeFileWritesGoThroughWire fails when a non-test Go file outside
// internal/wire, bench/ and examples/ calls os.WriteFile, os.Rename,
// os.Create, os.CreateTemp or os.OpenFile from a function the allowlist
// does not name.
func TestWholeFileWritesGoThroughWire(t *testing.T) {
	skip := map[string]bool{filepath.Join("internal", "wire"): true, "bench": true, "examples": true}
	calls := map[string][]string{} // pkg.Func -> positions of its calls
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[file] || file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		osName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			return nil
		}
		for _, decl := range f.Decls {
			key := f.Name.Name + ".<var>"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				key = f.Name.Name + "." + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !fileWriteCalls[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName {
					calls[key] = append(calls[key], fset.Position(sel.Pos()).String()+": os."+sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var bad []string
	for key, at := range calls {
		if _, ok := fileWriteAllowlist[key]; !ok {
			bad = append(bad, at...)
		}
	}
	for key := range fileWriteAllowlist {
		if len(calls[key]) == 0 {
			bad = append(bad, "stale allowlist entry "+key+": it makes no such call")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	if len(bad) > 0 {
		t.Log("write whole files with wire.WriteFile and commit directories with wire.Rename, or allowlist the function with its reason")
	}
}
