package puffer

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

// orphanAllowlist names the exported functions that stay in production files
// although no production declaration mentions them, one reason each.
var orphanAllowlist = map[string]string{
	"ChooseReference": "oracle: the planner's differential reference, called from three packages' tests",
	"CanonicalBytes":  "identity: the byte form other packages' tests compare indexes by",
	"Transfer":        "test convenience: five lines over TransferUpTo with 16 test call sites",
}

// runtimeCalled are method names the standard library calls through its own
// interfaces (fmt, errors, encoding/gob, encoding/json, flag, sort), so a
// type can need them without any declaration in this module saying so.
var runtimeCalled = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Set": true,
	"GobEncode": true, "GobDecode": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// TestNoProductionOrphans fails when a non-test file under internal/ or
// puffer.go declares an exported function or method that no other non-test
// declaration in internal/, cmd/, examples/, bench/ or puffer.go mentions:
// code only tests call belongs beside those tests, or nowhere.
//
// Matching is by bare name, not by resolved object, so it under-reports: an
// orphan that shares its name with anything mentioned elsewhere (stats.Mean
// hid nn.Mean) passes. It never over-reports a function production calls.
func TestNoProductionOrphans(t *testing.T) {
	type decl struct {
		file string
		node ast.Decl
	}
	var decls []decl
	fset := token.NewFileSet()
	parse := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			decls = append(decls, decl{path, d})
		}
	}
	parse("puffer.go")
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				parse(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// mentions[name] counts the declarations that use name anywhere but as
	// the name of the function they declare.
	mentions := map[string]int{}
	for _, d := range decls {
		seen := map[string]bool{}
		fn, _ := d.node.(*ast.FuncDecl)
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !(fn != nil && id == fn.Name) && !seen[id.Name] {
				seen[id.Name] = true
				mentions[id.Name]++
			}
			return true
		})
	}

	var orphans []string
	for _, d := range decls {
		fn, ok := d.node.(*ast.FuncDecl)
		tracked := d.file == "puffer.go" || strings.HasPrefix(d.file, "internal"+string(filepath.Separator))
		if !ok || !tracked || !fn.Name.IsExported() {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil && runtimeCalled[name] {
			continue
		}
		if _, allowed := orphanAllowlist[name]; allowed || mentions[name] > 0 {
			continue
		}
		orphans = append(orphans, fset.Position(fn.Pos()).String()+": "+name)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported functions have no production caller (delete them, move them beside the tests that use them, or allowlist them with a reason):\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}
