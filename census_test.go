package puffer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// census is one type-checked model of the module's non-test Go files, which
// the four census tests share: every exported function has a caller
// (TestNoProductionOrphans), every struct field a reader
// (TestEveryFieldHasAReader), every settable value a writer
// (TestEverySettableValueHasAWriter) and every parameter two values
// (TestEveryParameterVaries). Each rule matches by types.Object, so a
// method is never mistaken for another of the same name.
type census struct {
	fset *token.FileSet
	pkgs []*censusPkg
	// files maps each parsed file to its slash path from the module root.
	files map[*ast.File]string
	// uses holds, per object (a generic one by its origin) mentioned outside
	// its own declaration, how it was mentioned.
	uses map[types.Object]censusUse
	// named are the module's named non-interface types, package-level and
	// local.
	named []*types.Named
	// encoded are the fields encoding/json reads: the exported fields of
	// every type that reaches the static type of a json.Marshal,
	// json.MarshalIndent or (*json.Encoder).Encode argument.
	encoded map[*types.Var]bool
}

type censusPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// censusUse says how an object is mentioned. A composite-literal key, the
// left side of an assignment and an increment write; &x.F both writes and
// reads; a selector handed to a wire.Append* encoder, bare or through one
// conversion, neither reads nor writes (it ships a value that the peer may
// never read); every other mention reads.
type censusUse struct {
	read, write bool
}

var (
	censusOnce sync.Once
	censusMod  *census
	censusErr  error
)

// loadCensus type-checks the module once per test binary.
func loadCensus(t *testing.T) *census {
	t.Helper()
	censusOnce.Do(func() { censusMod, censusErr = buildCensus() })
	if censusErr != nil {
		t.Fatal(censusErr)
	}
	return censusMod
}

// buildCensus type-checks the module's packages from source, in `go list
// -deps` order and through one importer, so that an object is the same
// pointer in every package that names it. The standard library comes from
// the build cache's export data (`go list -export`): checking it from source
// would cost several times the whole census.
func buildCensus() (*census, error) {
	type listed struct {
		ImportPath, Dir string
		GoFiles         []string
		Standard        bool
	}
	out, err := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -deps: %v", err)
	}
	var mod []listed
	var std []string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Standard {
			std = append(std, p.ImportPath)
		} else {
			mod = append(mod, p)
		}
	}
	out, err = exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}

	c := &census{
		fset:    token.NewFileSet(),
		files:   map[*ast.File]string{},
		uses:    map[types.Object]censusUse{},
		encoded: map[*types.Var]bool{},
	}
	stdlib := importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return stdlib.Import(path)
	})}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, lp := range mod {
		p := &censusPkg{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range lp.GoFiles {
			abs := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(c.fset, abs, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				return nil, err
			}
			c.files[f] = filepath.ToSlash(rel)
			p.files = append(p.files, f)
		}
		if p.types, err = conf.Check(lp.ImportPath, c.fset, p.files, p.info); err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = p.types
		c.pkgs = append(c.pkgs, p)
	}
	for _, p := range c.pkgs {
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					c.named = append(c.named, n)
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				c.scan(p, d)
			}
		}
	}
	c.implementations()
	return c, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (c *census) use(obj types.Object, u censusUse) {
	obj = origin(obj)
	had := c.uses[obj]
	c.uses[obj] = censusUse{read: had.read || u.read, write: had.write || u.write}
}

// scan records every mention of a module object in one declaration, less
// those inside the object's own declaration (recursion is no caller).
func (c *census) scan(p *censusPkg, d ast.Decl) {
	var self types.Object
	if fn, ok := d.(*ast.FuncDecl); ok {
		self = p.info.Defs[fn.Name]
	}
	written := map[*ast.Ident]censusUse{} // mentions that are not plain reads
	mark := func(e ast.Expr, u censusUse) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			written[e.Sel] = u
		case *ast.Ident:
			written[e] = u
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				mark(l, censusUse{write: true})
			}
		case *ast.IncDecStmt:
			mark(n.X, censusUse{write: true})
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X, censusUse{read: true, write: true})
			}
		case *ast.CompositeLit:
			c.literal(p.info, n)
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					mark(kv.Key, censusUse{write: true})
				}
			}
		case *ast.CallExpr:
			c.handsOver(p.info, n)
			fn := callee(p.info, n)
			if encoderCall(fn) && len(n.Args) > 0 {
				c.encode(p.info.TypeOf(n.Args[0]))
			}
			if wireAppend(fn) {
				for _, a := range n.Args {
					if sel, ok := unconvert(p.info, a).(*ast.SelectorExpr); ok {
						written[sel.Sel] = censusUse{} // shipped, not read
					}
				}
			}
		case *ast.SelectorExpr:
			c.promoted(p.info, n)
		case *ast.Ident:
			obj := p.info.Uses[n]
			if obj == nil || obj.Pkg() == nil || origin(obj) == self {
				return true
			}
			u, ok := written[n]
			if !ok {
				u = censusUse{read: true}
			}
			c.use(obj, u)
		}
		return true
	})
}

// callee returns the function or method a call names, or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// encoderCall reports whether obj is json.Marshal, json.MarshalIndent or
// (*json.Encoder).Encode.
func encoderCall(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return false
	}
	if fn.Signature().Recv() != nil {
		return fn.Name() == "Encode"
	}
	return fn.Name() == "Marshal" || fn.Name() == "MarshalIndent"
}

// wireAppend reports whether obj is one of puffer/internal/wire's Append*
// encoders.
func wireAppend(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "puffer/internal/wire" && strings.HasPrefix(fn.Name(), "Append")
}

// unconvert strips parentheses and one type conversion from e: uint64(x.F)
// is x.F.
func unconvert(info *types.Info, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 && info.Types[call.Fun].IsType() {
		return ast.Unparen(call.Args[0])
	}
	return e
}

// encode marks the fields encoding/json reads from a value of type t.
func (c *census) encode(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		c.encode(u.Elem())
	case *types.Slice:
		c.encode(u.Elem())
	case *types.Array:
		c.encode(u.Elem())
	case *types.Map:
		c.encode(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			f := u.Field(i)
			tag, _, _ := strings.Cut(reflect.StructTag(u.Tag(i)).Get("json"), ",")
			if (f.Exported() || f.Embedded()) && tag != "-" && !c.encoded[f] {
				c.encoded[f] = true
				c.encode(f.Type())
			}
		}
	}
}

// literal records the fields an unkeyed struct literal writes.
func (c *census) literal(info *types.Info, lit *ast.CompositeLit) {
	if len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
		return
	}
	if st, ok := deref(info.TypeOf(lit)).Underlying().(*types.Struct); ok {
		for i := range lit.Elts {
			c.use(st.Field(i), censusUse{write: true})
		}
	}
}

// promoted records the embedded fields a promoted selector reads through.
func (c *census) promoted(info *types.Info, sel *ast.SelectorExpr) {
	s := info.Selections[sel]
	if s == nil {
		return
	}
	typ := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		f := deref(typ).Underlying().(*types.Struct).Field(i)
		c.use(f, censusUse{read: true})
		typ = f.Type()
	}
}

// handsOver records a call that hands a module value to the standard
// library as one of its interfaces (heap.Init, sort.Sort, flag.Var): the
// library calls that interface's methods, where no module file names them.
func (c *census) handsOver(info *types.Info, call *ast.CallExpr) {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	n := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1 && !call.Ellipsis.IsValid():
			pt = sig.Params().At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = sig.Params().At(i).Type()
		}
		named, ok := pt.(*types.Named)
		if !ok || !types.IsInterface(named) || named.Obj().Pkg() == nil || inModule(named.Obj()) {
			continue
		}
		at := info.TypeOf(arg)
		if types.IsInterface(at) {
			continue
		}
		for m := range named.Underlying().(*types.Interface).Methods() {
			if obj, _, _ := types.LookupFieldOrMethod(at, true, m.Pkg(), m.Name()); obj != nil {
				c.use(obj, censusUse{read: true})
			}
		}
	}
}

func inModule(obj types.Object) bool {
	path := obj.Pkg().Path()
	return path == "puffer" || strings.HasPrefix(path, "puffer/")
}

// asserted are the interfaces the standard library asserts on values it is
// handed (fmt, errors): a method in one is called although no module file
// names it.
func asserted() []*types.Interface {
	method := func(name string, result types.Type) *types.Func {
		res := types.NewTuple(types.NewVar(token.NoPos, nil, "", result))
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, nil, res, false))
	}
	str, err := types.Typ[types.String], types.Universe.Lookup("error").Type()
	var out []*types.Interface
	for _, m := range []*types.Func{method("Error", str), method("String", str), method("Unwrap", err)} {
		out = append(out, types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	return out
}

// implementations marks, for every interface method the module calls and
// every method the standard library asserts, the methods of the module's
// types that implement it.
func (c *census) implementations() {
	type want struct {
		iface *types.Interface
		name  string
	}
	var wants []want
	for obj := range c.uses {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				wants = append(wants, want{recv.Type().Underlying().(*types.Interface), fn.Name()})
			}
		}
	}
	for _, iface := range asserted() {
		wants = append(wants, want{iface, iface.Method(0).Name()})
	}
	for _, w := range wants {
		for _, n := range c.named {
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				obj, _, _ := types.LookupFieldOrMethod(t, true, n.Obj().Pkg(), w.name)
				if _, ok := obj.(*types.Func); ok && types.Implements(t, w.iface) {
					c.use(obj, censusUse{read: true})
					break
				}
			}
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// file returns the slash path of the file that declares obj, "" outside the
// module.
func (c *census) file(obj types.Object) string {
	for f, name := range c.files {
		if f.FileStart <= obj.Pos() && obj.Pos() < f.FileEnd {
			return name
		}
	}
	return ""
}

// tracked reports whether the census rules hold a declaration in file:
// internal/ and the public facade.
func tracked(file string) bool {
	return file == "puffer.go" || strings.HasPrefix(file, "internal/")
}

// defs calls fn for every object a tracked file declares, with its key:
// pkg.Func, pkg.Type.Method or pkg.Type.Field, a pointer receiver's star
// dropped and an anonymous struct named by its position.
func (c *census) defs(fn func(key string, obj types.Object)) {
	owner := map[*types.Var]string{}
	for _, n := range c.named {
		if st, ok := n.Underlying().(*types.Struct); ok {
			for f := range st.Fields() {
				owner[f] = n.Obj().Name()
			}
		}
	}
	for _, p := range c.pkgs {
		for id, obj := range p.info.Defs {
			if obj == nil || !tracked(c.file(obj)) {
				continue
			}
			key := obj.Pkg().Name() + "."
			switch o := obj.(type) {
			case *types.Func:
				if recv := o.Signature().Recv(); recv != nil {
					named, ok := deref(recv.Type()).(interface{ Obj() *types.TypeName })
					if !ok {
						continue // a method of an unnamed interface: its uses are its type's
					}
					key += named.Obj().Name() + "."
				}
			case *types.Var:
				if !o.IsField() {
					continue
				}
				if owner[o] == "" {
					owner[o] = "struct@" + c.fset.Position(id.Pos()).String()
				}
				key += owner[o] + "."
			default:
				continue
			}
			fn(key+obj.Name(), obj)
		}
	}
}

// checkAllowlist fails on each finding (key -> position) that allow does not
// name by key or, for a field, by its struct's key, and on each entry of
// allow that names no finding, so the list cannot go stale.
func checkAllowlist(t *testing.T, what string, found map[string]string, allow map[string]string) {
	t.Helper()
	used := map[string]bool{}
	var bad, stale []string
	for key, at := range found {
		owner := key[:strings.LastIndex(key, ".")]
		switch {
		case allow[key] != "":
			used[key] = true
		case allow[owner] != "":
			used[owner] = true
		default:
			bad = append(bad, at+": "+key)
		}
	}
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(bad)
	sort.Strings(stale)
	if len(bad) > 0 {
		t.Errorf("%d %s (delete them, or allowlist them with a reason):\n  %s", len(bad), what, strings.Join(bad, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d allowlist entries name nothing the rule finds (drop the entry):\n  %s", len(stale), strings.Join(stale, "\n  "))
	}
}

// orphanAllowlist names, as pkg.Func or pkg.Type.Method, the exported
// functions that stay although no production file calls them, one reason
// each.
var orphanAllowlist = map[string]string{
	"results.Index.CanonicalBytes": "identity: the byte form other packages' tests compare indexes by",
	"puffer.EmulationEnv":          "public API",
	"puffer.NewMPCHM":              "public API",
	"puffer.NewRobustMPCHM":        "public API",
	"puffer.DriftPreset":           "public API",
}

// TestNoProductionOrphans fails when a non-test file under internal/ or
// puffer.go declares an exported function or method that no non-test file
// in the module calls: code only tests call belongs beside those tests, or
// nowhere. A method also counts as called when an interface method it
// implements is called, when the module hands its type to the standard
// library as an interface holding it (heap.Init, sort.Sort), and when it is
// Error, String or Unwrap, which fmt and errors assert.
func TestNoProductionOrphans(t *testing.T) {
	c := loadCensus(t)
	found := map[string]string{}
	c.defs(func(key string, obj types.Object) {
		_, isFunc := obj.(*types.Func)
		if _, used := c.uses[obj]; isFunc && obj.Exported() && !used {
			found[key] = c.fset.Position(obj.Pos()).String()
		}
	})
	checkAllowlist(t, "exported functions have no production caller", found, orphanAllowlist)
}

// readerAllowlist names, as pkg.Type.Field or pkg.Type for all its fields,
// the struct fields that stay although no production file reads them, one
// reason each.
var readerAllowlist = map[string]string{
	"sweep.Spec.Notes":      "documentation that the committed sweep files carry",
	"serve.session.modelID": "shipped in every HelloOK and DecideOK; the client decodes it back as remote.modelID and checks it",
}

// TestEveryFieldHasAReader fails when a struct field that a non-test file
// under internal/ or puffer.go declares is read by no non-test file: a value
// nobody reads is work and memory for nothing. Writing a field (a literal
// key, an assignment, an increment) is no read; &x.F is. Nor is passing it to
// a puffer/internal/wire Append* encoder, directly or through one type
// conversion: a value shipped is not a value read, so a field the wire
// carries needs a reader besides its encoder. The exported fields of a
// type that reaches a JSON encoder are read by it.
func TestEveryFieldHasAReader(t *testing.T) {
	c := loadCensus(t)
	found := map[string]string{}
	c.defs(func(key string, obj types.Object) {
		f, ok := obj.(*types.Var)
		if ok && f.Name() != "_" && !c.encoded[f] && !c.uses[f].read {
			found[key] = c.fset.Position(f.Pos()).String()
		}
	})
	checkAllowlist(t, "struct fields have no production reader", found, readerAllowlist)
}

// writerAllowlist names, as pkg.Type.Field, the settable values that stay
// although nothing sets them, one reason each.
var writerAllowlist = map[string]string{}

// TestEverySettableValueHasAWriter fails when a value a caller configures
// is set by nothing: a knob nobody turns is a branch nobody runs. The
// settable values are the exported fields of scenario.Spec and the specs
// below it, of sweep.Spec and its axes, and of every exported struct under
// internal/ named *Config or *Options. A field is written by a non-test
// composite-literal key, assignment or &x.F, by a key of a committed spec
// (scenarios/**/*.json, a sweep axis's field path included), or by a path in
// puffer-daily's override table. A decoder filling the field is no writer:
// it only passes on what one of those wrote.
func TestEverySettableValueHasAWriter(t *testing.T) {
	c := loadCensus(t)
	spec, sweep := c.lookup("puffer/internal/scenario", "Spec"), c.lookup("puffer/internal/sweep", "Spec")
	settable := map[*types.Var]bool{}
	var below func(types.Type)
	below = func(typ types.Type) {
		n, ok := deref(typ).(*types.Named)
		if st, isStruct := deref(typ).Underlying().(*types.Struct); ok && isStruct && inModule(n.Obj()) {
			for f := range st.Fields() {
				if f.Exported() && !settable[f] {
					settable[f] = true
					below(elem(f.Type()))
				}
			}
		}
	}
	below(spec)
	below(sweep)
	for _, n := range c.named {
		name := n.Obj().Name()
		if st, ok := n.Underlying().(*types.Struct); ok && n.Obj().Exported() && tracked(c.file(n.Obj())) &&
			(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			for f := range st.Fields() {
				settable[f] = settable[f] || f.Exported()
			}
		}
	}

	written := map[*types.Var]bool{}
	for f := range settable {
		written[f] = c.uses[f].write
	}
	w := jsonWriter{written: written, spec: spec, axis: c.lookup("puffer/internal/sweep", "Axis")}
	err := filepath.WalkDir("scenarios", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(file) != ".json" {
			return err
		}
		blob, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var doc any
		if err := json.Unmarshal(blob, &doc); err != nil {
			return fmt.Errorf("%s: %v", file, err)
		}
		root := types.Type(spec)
		if filepath.Base(filepath.Dir(file)) == "sweeps" {
			root = sweep
		}
		if err := w.value(root, doc); err != nil {
			return fmt.Errorf("%s: %v", file, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range c.overridePaths() {
		if err := w.path(spec, path); err != nil {
			t.Errorf("puffer-daily override: %v", err)
		}
	}

	found := map[string]string{}
	c.defs(func(key string, obj types.Object) {
		if f, ok := obj.(*types.Var); ok && settable[f] && !written[f] {
			found[key] = c.fset.Position(f.Pos()).String()
		}
	})
	checkAllowlist(t, "settable values have no writer", found, writerAllowlist)
}

// elem strips pointers, slices and maps down to the element type.
func elem(t types.Type) types.Type {
	for {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return t
		}
	}
}

// pkg returns the module package with the given import path.
func (c *census) pkg(path string) *censusPkg {
	for _, p := range c.pkgs {
		if p.types.Path() == path {
			return p
		}
	}
	panic("census: no package " + path)
}

// lookup returns the package-level named type pkg.name.
func (c *census) lookup(pkg, name string) *types.Named {
	return c.pkg(pkg).types.Scope().Lookup(name).Type().(*types.Named)
}

// overridePaths returns the spec paths puffer-daily's override table sets:
// each flag's path and the path of the field it pins.
func (c *census) overridePaths() []string {
	var paths []string
	p := c.pkg("puffer/cmd/puffer-daily")
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "overrides" {
				return true
			}
			for _, e := range vs.Values[0].(*ast.CompositeLit).Elts {
				o := e.(*ast.KeyValueExpr).Value.(*ast.CompositeLit)
				st := p.info.TypeOf(o).Underlying().(*types.Struct)
				for i, v := range o.Elts {
					if name := st.Field(i).Name(); name == "path" || name == "pin" {
						text := constant.StringVal(p.info.Types[v].Value)
						if path, _, _ := strings.Cut(text, "="); path != "" {
							paths = append(paths, path)
						}
					}
				}
			}
			return false
		})
	}
	if len(paths) == 0 {
		panic("census: puffer-daily's override table not found")
	}
	return paths
}

// jsonWriter marks the fields a committed JSON document writes.
type jsonWriter struct {
	written    map[*types.Var]bool
	spec, axis *types.Named
}

// value marks the fields v sets when decoded into type t.
func (w jsonWriter) value(t types.Type, v any) error {
	switch v := v.(type) {
	case map[string]any:
		if _, ok := deref(t).Underlying().(*types.Struct); !ok {
			for _, e := range v {
				if err := w.value(elem(t), e); err != nil {
					return err
				}
			}
			return nil
		}
		for key, e := range v {
			f := jsonField(t, key)
			if f == nil {
				return fmt.Errorf("key %q names no field of %s", key, t)
			}
			w.written[f] = true
			if err := w.value(f.Type(), e); err != nil {
				return err
			}
		}
		if path, ok := v["field"].(string); ok && types.Identical(deref(t), w.axis) {
			return w.path(w.spec, path)
		}
	case []any:
		for _, e := range v {
			if err := w.value(elem(t), e); err != nil {
				return err
			}
		}
	}
	return nil
}

// path marks every field along a dotted JSON path from type t.
func (w jsonWriter) path(t types.Type, path string) error {
	for _, key := range strings.Split(path, ".") {
		f := jsonField(t, key)
		if f == nil {
			return fmt.Errorf("path %q: %q names no field of %s", path, key, t)
		}
		w.written[f] = true
		t = f.Type()
	}
	return nil
}

// jsonField returns the field of struct type t (or *t) that encoding/json
// decodes key into, or nil.
func jsonField(t types.Type, key string) *types.Var {
	st, ok := deref(t).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := range st.NumFields() {
		f := st.Field(i)
		name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		if name == "" {
			name = f.Name()
		}
		if f.Exported() && name != "-" && strings.EqualFold(name, key) {
			return f
		}
	}
	return nil
}

// paramAllowlist names, as pkg.Func.param or pkg.Type.Method.param, the
// parameters that stay although every call passes them the same value, one
// reason each.
var paramAllowlist = map[string]string{
	"nn.MaxPlane.stride":   "a kernel primitive's row stride: the planner's buffer grid width (nBuf), which the abr tables fix, not nn",
	"obs.Serve.reg":        "the caller names the registry it publishes; every CLI publishes the process-wide obs.Default",
	"obs.DumpFile.reg":     "the caller names the registry it dumps; every CLI dumps the process-wide obs.Default",
	"scenario.Named":       "a spec builder option: its value is the spec field's, which bench's base spec sets",
	"scenario.Shard":       "a spec builder option: its value is the spec field's, which bench's base spec sets",
	"scenario.RecencyBase": "a spec builder option: its value is the spec field's, which the figures suite's two-day spec sets",
	"scenario.Bursts":      "a spec builder option: its values are the spec fields', which the registry's fleet-burst scenario sets",
	"scenario.Tick":        "a spec builder option: its value is the spec field's, which bench's base spec sets",
}

// TestEveryParameterVaries fails when a parameter of a function or method
// declared under internal/ receives one value at every non-test call site:
// a parameter every caller pins is a constant. A function counts only when
// all its calls are visible: it is never used as a value, implements no
// interface method and has a body (an assembly stub's signature is the
// caller's). An argument's value is a constant, nil or one package-level
// variable; any other argument varies. Interface-typed parameters (test
// seams) and the []byte buffer of an append-style function are exempt.
func TestEveryParameterVaries(t *testing.T) {
	c := loadCensus(t)
	calls, asValue := c.calls()
	ifaces := c.interfaces()
	stubs := map[types.Object]bool{}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body == nil {
					stubs[p.info.Defs[fd.Name]] = true
				}
			}
		}
	}
	found := map[string]string{}
	c.defs(func(key string, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok || !strings.HasPrefix(c.file(fn), "internal/") || len(calls[fn]) == 0 ||
			asValue[fn] || stubs[fn] || implements(fn, ifaces) {
			return
		}
		sig := fn.Signature()
		for i := range sig.Params().Len() {
			param := sig.Params().At(i)
			if exemptParam(sig, param) {
				continue
			}
			values := map[string]bool{}
			for _, v := range calls[fn] {
				values[v[i]] = true
			}
			for v := range values {
				if len(values) == 1 && v != censusVaries {
					found[key+"."+param.Name()] = fmt.Sprintf("%s: always %s", c.fset.Position(param.Pos()), v)
				}
			}
		}
	})
	checkAllowlist(t, "parameters receive one value at every call site", found, paramAllowlist)
}

// censusVaries is the value of an argument the census cannot pin.
const censusVaries = "\x00varies"

// calls returns, per module function (a generic one by its origin), the value
// each of its parameters receives at each non-test call site, and the
// functions mentioned other than in a call's function position, whose calls
// the census cannot see.
func (c *census) calls() (map[*types.Func][][]string, map[*types.Func]bool) {
	calls := map[*types.Func][][]string{}
	asValue := map[*types.Func]bool{}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			called := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id := calledIdent(call.Fun)
				if id == nil {
					return true
				}
				fn, ok := p.info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || !inModule(fn) {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isMethodExpr(p.info.Selections[sel]) {
					return true // T.M(x, ...): the receiver is an argument; counted as a value
				}
				called[id] = true
				fn = fn.Origin()
				calls[fn] = append(calls[fn], c.argValues(p.info, fn.Signature(), call))
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !called[id] {
					if fn, ok := p.info.Uses[id].(*types.Func); ok {
						asValue[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}
	return calls, asValue
}

// calledIdent returns the identifier naming the function in a call's function
// position (f, pkg.F, x.M, f[T]), or nil.
func calledIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return calledIdent(f.X)
	case *ast.IndexListExpr:
		return calledIdent(f.X)
	}
	return nil
}

func isMethodExpr(s *types.Selection) bool { return s != nil && s.Kind() == types.MethodExpr }

// argValues returns the value each parameter of sig receives at call: a
// constant's exact value, "nil", a package-level variable's name, or
// censusVaries. A variadic parameter's value is the list of its arguments.
func (c *census) argValues(info *types.Info, sig *types.Signature, call *ast.CallExpr) []string {
	n := sig.Params().Len()
	out := make([]string, n)
	if len(call.Args) == 1 && n > 1 {
		for i := range out {
			out[i] = censusVaries // f(g()) with g returning several values
		}
		return out
	}
	value := func(e ast.Expr) string {
		tv := info.Types[e]
		switch {
		case tv.Value != nil && tv.Value.Kind() == constant.Float:
			f, _ := constant.Float64Val(tv.Value)
			return strconv.FormatFloat(f, 'g', -1, 64)
		case tv.Value != nil:
			return tv.Value.ExactString()
		case tv.IsNil():
			return "nil"
		}
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return censusVaries
	}
	for i := range n {
		if sig.Variadic() && i == n-1 {
			if call.Ellipsis.IsValid() {
				out[i] = value(call.Args[i])
				continue
			}
			var list []string
			for _, a := range call.Args[i:] {
				list = append(list, value(a))
			}
			out[i] = "[" + strings.Join(list, ", ") + "]"
			if strings.Contains(out[i], censusVaries) {
				out[i] = censusVaries
			}
			continue
		}
		out[i] = value(call.Args[i])
	}
	return out
}

// interfaces returns every interface type the module's non-test files
// mention or declare, and the ones fmt and errors assert.
func (c *census) interfaces() []*types.Interface {
	seen := map[types.Type]bool{}
	out := asserted()
	add := func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	for _, p := range c.pkgs {
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				add(obj.Type())
			}
		}
	}
	return out
}

// implements reports whether method fn's receiver type implements an
// interface with a method of fn's name, so that calls through it are not
// visible as calls of fn.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		for m := range it.Methods() {
			if m.Name() == fn.Name() && (types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(deref(recv.Type())), it)) {
				return true
			}
		}
	}
	return false
}

// exemptParam reports whether a parameter needs no second value: an interface
// (a seam a test fills with a fake) or the []byte buffer an append-style
// function extends and returns.
func exemptParam(sig *types.Signature, param *types.Var) bool {
	if types.IsInterface(param.Type()) {
		return true
	}
	buf := types.NewSlice(types.Typ[types.Byte])
	if !types.Identical(param.Type(), buf) {
		return false
	}
	for r := range sig.Results().Variables() {
		if types.Identical(r.Type(), buf) {
			return true
		}
	}
	return false
}
