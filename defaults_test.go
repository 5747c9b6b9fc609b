package puffer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// shadowDefaultAllowlist names, as "pkg.Func: expr" ("pkg.T.Method" or
// "pkg.(*T).Method" for a method), the zero-value fills that stay below
// scenario.WithDefaults, one reason each; expr is the filled field or
// parameter. Every entry must name a current fill: one whose fill was
// deleted fails the test.
var shadowDefaultAllowlist = map[string]string{
	"runner.Run: cfg.Logf":        "nil Logf is the documented silent mode, not a value of the experiment",
	"runner.Run: cfg.Engine":      "nil Engine names the per-session fold, the daily loop's reference engine",
	"fleet.RunTrial: cfg.Workers": "0 = GOMAXPROCS, the repo-wide worker rule; results do not depend on it",
	"dist.NewPool: cfg.Workers":   "0 = GOMAXPROCS, the repo-wide worker rule; results do not depend on it",
	"serve.RunLoad: cfg.Logf":     "nil Logf is the documented silent mode",
	// The server's operational limits are no part of any experiment's
	// outcome; the benchmark builds serve.Config{Plan} and relies on them.
	"serve.NewServer: cfg.MaxBatch":     "serving limit, not an experiment value; the benchmark relies on it",
	"serve.NewServer: cfg.QueueDepth":   "serving limit, not an experiment value; the benchmark relies on it",
	"serve.NewServer: cfg.ReadTimeout":  "serving limit, not an experiment value; the benchmark relies on it",
	"serve.NewServer: cfg.WriteTimeout": "serving limit, not an experiment value; the benchmark relies on it",
	"serve.NewServer: cfg.DrainTimeout": "serving limit, not an experiment value; the benchmark relies on it",
	"serve.NewServer: cfg.Logf":         "nil Logf is the documented silent mode",
	// Fills of a parameter or of a local copied from a field.
	"core.NewTTP: hidden":                      "nil hidden is DefaultHidden; the benchmark builds its models with nil",
	"experiment.(*Config).RunSharded: workers": "0 = GOMAXPROCS, the repo-wide worker rule; results do not depend on it",
	"sweep.Execute: ec.Workers":                "0 = GOMAXPROCS, the repo-wide worker rule; results do not depend on it",
	"sweep.Execute: ec.Logf":                   "nil Logf is the documented silent mode",
	"obscli.(*Options).Start: logf":            "nil logf is the documented silent mode",
	"figures.NewSuite: logf":                   "nil logf is the documented silent mode",
	"figures.NewSuite: scale":                  "the figures command's -scale 0 means DefaultScale; the suite is no scenario.Spec",
	"obs.NewTracer: capacity":                  "trace ring size, not an experiment value",
	"obs.NewTracer: sample":                    "0 and 1 both trace every session, as documented",
	"serve.RunLoad: cfg.Concurrency":           "load generator's pool bound, not an experiment value",
	"results.groupAggregate: q.Agg":            "a GroupBy query without -agg counts rows per group; a query option, not an experiment value",
	"nn.(*PackedMLP).predictDist: dst":         "nil dst asks for a fresh output slice, not a value",
}

// defaultHomes are the functions that fill a spec's defaults: the one home
// every other layer reads its values from.
var defaultHomes = map[string]bool{
	"scenario.WithDefaults":       true,
	"scenario.withEngineDefaults": true,
}

// TestNoShadowDefaults fails when a non-test file under internal/ fills a
// zero value with a default — `if x <= 0 / == 0 / == nil / == "" { x = … }`
// for a field x, a parameter x, or a local x copied from a field (`x :=
// c.F`, reported as c.F) — that is not allowlisted above. Every value of a
// run has one home, scenario.WithDefaults: a second fill below it either
// repeats that value (two places to change) or disagrees with it (two
// experiments under one spec), and a caller that skipped scenario.Compile
// should get an error, not a guess. It also fails on an allowlist entry
// that names no fill.
func TestNoShadowDefaults(t *testing.T) {
	fset := token.NewFileSet()
	found := map[string][]string{} // key -> positions
	err := filepath.WalkDir("internal", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := f.Name.Name + "." + fn.Name.Name
			if defaultHomes[name] {
				continue
			}
			// A pointer receiver's own unexported fields are its state (a
			// memo, a running estimate, a first error); an exported one is
			// a caller's config.
			state := ""
			if fn.Recv != nil {
				recv := fn.Recv.List[0]
				typ := types.ExprString(recv.Type)
				if star, ok := recv.Type.(*ast.StarExpr); ok {
					typ = "(*" + types.ExprString(star.X) + ")"
					if len(recv.Names) == 1 {
						state = recv.Names[0].Name
					}
				}
				name = f.Name.Name + "." + typ + "." + fn.Name.Name
			}
			// A parameter, and a local copied from a field (`v := x.F`),
			// carry a caller's value under another name: a fill of
			// either is a fill of that value.
			copies := map[string]string{}
			for _, field := range fn.Type.Params.List {
				for _, id := range field.Names {
					copies[id.Name] = id.Name
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == len(as.Rhs) {
					for i, rhs := range as.Rhs {
						id, isID := as.Lhs[i].(*ast.Ident)
						if _, isSel := rhs.(*ast.SelectorExpr); isID && isSel {
							copies[id.Name] = types.ExprString(rhs)
						}
					}
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if x, ok := n.(*ast.IfStmt); ok {
					e := zeroFill(x)
					if !strings.Contains(e, ".") {
						e = copies[e]
					}
					field, own := strings.CutPrefix(e, state+".")
					if e != "" && !(own && !ast.IsExported(field)) {
						key := name + ": " + e
						found[key] = append(found[key], fset.Position(x.Pos()).String())
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var shadows, stale []string
	for key, at := range found {
		if shadowDefaultAllowlist[key] == "" {
			shadows = append(shadows, strings.Join(at, ", ")+": "+key)
		}
	}
	for key := range shadowDefaultAllowlist {
		if found[key] == nil {
			stale = append(stale, key)
		}
	}
	sort.Strings(shadows)
	sort.Strings(stale)
	if len(shadows) > 0 {
		t.Errorf("%d zero-value fills below scenario.WithDefaults (refuse the zero value, make the field a constant, or allowlist the fill with a reason):\n  %s",
			len(shadows), strings.Join(shadows, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d allowlist entries name no zero-value fill (drop the entry):\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}

// zeroFill returns x's tested expression when x is `if e <= 0`, `e == 0`,
// `e == nil` or `e == ""` for a field selector or a name e and its body
// assigns e or the value e is a field of, else "".
func zeroFill(x *ast.IfStmt) string {
	cond, ok := x.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LEQ && cond.Op != token.EQL) {
		return ""
	}
	switch y := cond.Y.(type) {
	case *ast.BasicLit:
		if y.Value != "0" && y.Value != `""` {
			return ""
		}
	case *ast.Ident:
		if y.Name != "nil" || cond.Op != token.EQL {
			return ""
		}
	default:
		return ""
	}
	switch cond.X.(type) {
	case *ast.SelectorExpr, *ast.Ident:
	default:
		return ""
	}
	e := types.ExprString(cond.X)
	for _, st := range x.Body.List {
		if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 {
			if lhs := types.ExprString(as.Lhs[0]); lhs == e || strings.HasPrefix(e, lhs+".") {
				return e
			}
		}
	}
	return ""
}
