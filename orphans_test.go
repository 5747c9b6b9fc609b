package puffer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowlist names, by package-qualified name, the exported functions
// that stay in production files although no production declaration uses
// them, one reason each. Every entry must name a current orphan: one that
// was deleted, or that production now uses, fails the test.
var orphanAllowlist = map[string]string{
	"results.CanonicalBytes": "identity: the byte form other packages' tests compare indexes by",
	"puffer.EmulationEnv":    "public API",
	"puffer.NewMPCHM":        "public API",
	"puffer.NewRobustMPCHM":  "public API",
	"puffer.DriftPreset":     "public API",
	"fleet.Push":             "heap.Interface: the calendar's heap.Init and heap.Fix need it, and its typed push never boxes through it",
	"fleet.Pop":              "heap.Interface: as fleet.Push, for the typed pop",
}

// runtimeCalled are method names the standard library calls through its own
// interfaces (fmt, errors, encoding/json, flag, sort), so a
// type can need them without any declaration in this module saying so.
var runtimeCalled = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Set": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// TestNoProductionOrphans fails when a non-test file under internal/ or
// puffer.go declares an exported function or method that no other non-test
// declaration in internal/, cmd/, examples/, bench/ or puffer.go uses: code
// only tests call belongs beside those tests, or nowhere. It also fails on an
// allowlist entry that names no orphan, so the list cannot go stale.
//
// A package-level function counts as used only where it is resolved: as
// pkg.Name through the file's import of its package, or as a bare identifier
// inside its own package that is not a selector, a composite-literal key or a
// field name — so a struct field Retrain no longer hides a function Retrain.
// Methods are still matched by bare name, so an orphan method that shares its
// name with anything mentioned elsewhere passes. Neither under-report ever
// flags a function production calls.
func TestNoProductionOrphans(t *testing.T) {
	type decl struct {
		file, pkg string // pkg is the import path
		node      ast.Decl
	}
	var decls []decl
	imports := map[string]map[string]string{} // file -> local name -> import path
	fset := token.NewFileSet()
	parse := func(file string) {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := path.Join("puffer", filepath.ToSlash(filepath.Dir(file)))
		imports[file] = map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[file][name] = p
		}
		for _, d := range f.Decls {
			decls = append(decls, decl{file, pkg, d})
		}
	}
	parse("puffer.go")
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(file, ".go") && !strings.HasSuffix(file, "_test.go") {
				parse(file)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// mentions[name] counts the declarations that use name anywhere but as
	// the name of the function they declare (the method rule); used holds
	// every "importpath.Name" a declaration resolves (the function rule).
	mentions := map[string]int{}
	used := map[string]bool{}
	for _, d := range decls {
		seen := map[string]bool{}
		fn, _ := d.node.(*ast.FuncDecl)
		notUse := map[*ast.Ident]bool{}
		if fn != nil {
			notUse[fn.Name] = true
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notUse[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[d.file][x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							notUse[k] = true
						}
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					notUse[id] = true
				}
			case *ast.Ident:
				if !(fn != nil && n == fn.Name) && !seen[n.Name] {
					seen[n.Name] = true
					mentions[n.Name]++
				}
				if !notUse[n] {
					used[d.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var orphans []string
	allowed := map[string]bool{} // allowlist keys that named an orphan
	for _, d := range decls {
		fn, ok := d.node.(*ast.FuncDecl)
		tracked := d.file == "puffer.go" || strings.HasPrefix(d.file, "internal"+string(filepath.Separator))
		if !ok || !tracked || !fn.Name.IsExported() {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil && (runtimeCalled[name] || mentions[name] > 0) {
			continue
		}
		if fn.Recv == nil && used[d.pkg+"."+name] {
			continue
		}
		if key := path.Base(d.pkg) + "." + name; orphanAllowlist[key] != "" {
			allowed[key] = true
			continue
		}
		orphans = append(orphans, fset.Position(fn.Pos()).String()+": "+name)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported functions have no production caller (delete them, move them beside the tests that use them, or allowlist them with a reason):\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	var stale []string
	for key := range orphanAllowlist {
		if !allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("%d allowlist entries name no production orphan (the function is gone or production now uses it; drop the entry):\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}
