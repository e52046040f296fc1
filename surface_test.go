package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Reasons a declaration under internal/ may stay although no program reaches
// it.
const (
	threatModel = "threat model, ROADMAP item 7"
	testOracle  = "cross-package test oracle"
)

// knownUnreached names every declaration under internal/ that no program
// reaches, with the reason it stays. TestUnreadSurface fails on an
// unreached declaration missing here (new dead code) and on an entry a
// program now reaches or that no longer exists (a stale entry: delete it).
var knownUnreached = map[string]string{
	"addr.RepairMode":          threatModel,
	"addr.RepairIntraSubarray": threatModel,
	"addr.RepairInterSubarray": threatModel,
	"addr.GenerateRepairs":     threatModel,
	"addr.NewRepairTable":      threatModel,
	"addr.RepairTable.Add":     threatModel,
	"attack.DoubleSided":       threatModel,
	"attack.HalfDouble":        threatModel,
	"attack.RowPressPattern":   threatModel,
	// A hand-built pattern hammered at a chosen offset: the fuzzer builds
	// its own candidates through the unexported pieces these share.
	"attack.ManySided":             threatModel,
	"attack.Pattern.Synchronized":  threatModel,
	"attack.Pattern.ActsPerWindow": threatModel,
	"attack.Fuzzer.HammerPattern":  threatModel,
	"core.Device.DMARead":          threatModel,
	"core.Device.HammerDMA":        threatModel,
	"core.Device.Tables":           threatModel,
	"core.VM.Regions":              threatModel,
	"core.VM.RegionGPA":            threatModel,
	"core.VM.RegionPages":          threatModel,
	"guest.Process.HammerVirtual":  threatModel,
	// The live-row differential of the dram, ept, fleet, attack and core
	// tests.
	"dram.Memory.LiveRows": testOracle,
	// The reference for addr's fuzz and ref tests.
	"geometry.MediaAddr.Valid": testOracle,
}

// modulePath is the import path of the module's root package.
const modulePath = "repro"

// programDirs are the module's programs: the siloz binary, the benchmark
// driver and, because `make verify` runs them, the examples.
var programDirs = []string{"cmd/siloz", "benchmark", "examples/*"}

// modulePkg is one type-checked non-test package of the module.
type modulePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// decl is the declaring node of a top-level object, or of a field, and
// the package it is in.
type decl struct {
	mp *modulePkg
	n  ast.Node
}

// census is a reachability walk over the module's non-test code.
type census struct {
	fset *token.FileSet
	pkgs map[string]*modulePkg // by import path
	std  types.ImporterFrom

	decls    map[types.Object]decl
	reached  map[types.Object]bool
	queue    []types.Object
	named    map[*types.TypeName]bool // reached named types
	dispatch map[string]bool          // method names called through an interface
}

// loadModule parses every non-test package of the module (honouring build
// constraints) and type-checks it, the standard library from source.
func loadModule(t *testing.T) *census {
	t.Helper()
	c := &census{
		fset:     token.NewFileSet(),
		pkgs:     map[string]*modulePkg{},
		decls:    map[types.Object]decl{},
		reached:  map[types.Object]bool{},
		named:    map[*types.TypeName]bool{},
		dispatch: map[string]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(c.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(modulePath, filepath.ToSlash(filepath.Dir(p)))
		if c.pkgs[ip] == nil {
			c.pkgs[ip] = &modulePkg{}
		}
		c.pkgs[ip].files = append(c.pkgs[ip].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range c.pkgs {
		if _, err := c.check(ip); err != nil {
			t.Fatal(err)
		}
	}
	for _, mp := range c.pkgs {
		for _, f := range mp.files {
			c.declare(mp, f)
		}
	}
	return c
}

// check type-checks one module package, its module imports first.
func (c *census) check(ip string) (*types.Package, error) {
	mp := c.pkgs[ip]
	if mp.pkg != nil {
		return mp.pkg, nil
	}
	mp.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(ip, c.fset, mp.files, mp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", ip, err)
	}
	mp.pkg = pkg
	return pkg, nil
}

// Import implements types.Importer: module packages from this census,
// everything else from the standard library's source.
func (c *census) Import(ip string) (*types.Package, error) {
	return c.ImportFrom(ip, ".", 0)
}

// ImportFrom implements types.ImporterFrom.
func (c *census) ImportFrom(ip, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := c.pkgs[ip]; ok {
		return c.check(ip)
	}
	return c.std.ImportFrom(ip, dir, mode)
}

// declare records the declaring node of every top-level object in f and of
// every exported field of its top-level struct types.
func (c *census) declare(mp *modulePkg, f *ast.File) {
	add := func(id *ast.Ident, n ast.Node) {
		if obj := mp.info.Defs[id]; obj != nil && id.Name != "_" {
			c.decls[obj] = decl{mp, n}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() {
									add(id, fld)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
}

// reach marks obj reached and queues its declaration for walking.
func (c *census) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj == nil || c.reached[obj] {
		return
	}
	c.reached[obj] = true
	c.queue = append(c.queue, obj)
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		c.named[tn] = true
	}
}

// walk marks everything the node refers to. A method used through an
// interface (a call, or a method value) records its name for dispatch; a
// function from outside the module records the methods of the interfaces it
// takes, which it may call on a module value.
func (c *census) walk(mp *modulePkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := mp.info.Uses[id]
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				c.dispatch[fn.Name()] = true
			}
			if fn.Pkg() != nil && c.pkgs[fn.Pkg().Path()] == nil {
				for i := 0; i < sig.Params().Len(); i++ {
					c.interfaceMethods(sig.Params().At(i).Type())
				}
			}
		}
		c.reach(obj)
		return true
	})
}

// interfaceMethods records for dispatch the methods of t's interface, if it
// is one (or a slice of one, for variadic parameters).
func (c *census) interfaceMethods(t types.Type) {
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			c.dispatch[it.Method(i).Name()] = true
		}
	}
}

// blank reports whether a var spec only declares _: a compile-time
// assertion, which reaches nothing at run time.
func blank(vs *ast.ValueSpec) bool {
	for _, id := range vs.Names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

// alwaysReached are methods the runtime and standard library call by name
// on any value handed to them (fmt, errors, encoding/json).
var alwaysReached = map[string]bool{"String": true, "Error": true, "MarshalJSON": true}

// run walks from the programs' main functions and from the initialisation
// of every package they link (init functions and package-level variable
// initialisers run whether or not anything names them), to a fixpoint over
// interface dispatch: a method is reached when reached code calls it, takes
// it as a value, or could dispatch to it through an interface of that name
// on a reached type.
func (c *census) run(t *testing.T) {
	t.Helper()
	var roots []string
	for _, pat := range programDirs {
		dirs, err := filepath.Glob(pat)
		if err != nil || len(dirs) == 0 {
			t.Fatalf("program pattern %s: %v", pat, err)
		}
		for _, d := range dirs {
			roots = append(roots, path.Join(modulePath, filepath.ToSlash(d)))
		}
	}
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p] || c.pkgs[p.Path()] == nil {
			return
		}
		linked[p] = true
		for _, imp := range p.Imports() {
			link(imp)
		}
	}
	for _, ip := range roots {
		mp := c.pkgs[ip]
		if mp == nil || mp.pkg.Name() != "main" {
			t.Fatalf("%s is not a main package", ip)
		}
		link(mp.pkg)
		c.reach(mp.pkg.Scope().Lookup("main"))
	}
	for p := range linked {
		mp := c.pkgs[p.Path()]
		for _, f := range mp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						c.reach(mp.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if vs, ok := s.(*ast.ValueSpec); ok && d.Tok == token.VAR && !blank(vs) {
							for _, v := range vs.Values {
								c.walk(mp, v)
							}
						}
					}
				}
			}
		}
	}
	for obj := range c.decls {
		if fn, ok := obj.(*types.Func); ok && alwaysReached[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil {
			c.reach(obj)
		}
	}
	for {
		for len(c.queue) > 0 {
			obj := c.queue[len(c.queue)-1]
			c.queue = c.queue[:len(c.queue)-1]
			if d, ok := c.decls[obj]; ok {
				c.walk(d.mp, d.n)
			}
		}
		for tn := range c.named {
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); c.dispatch[m.Name()] {
					c.reach(m)
				}
			}
		}
		if len(c.queue) == 0 {
			return
		}
	}
}

// name is an object's census label: pkg.Name, pkg.Recv.Name for a method,
// pkg.Type.Field for a field.
func (c *census) name(obj types.Object) string {
	prefix := obj.Pkg().Name() + "."
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			prefix += recvTypeName(recv.Type()) + "."
		}
	case *types.Var:
		if o.IsField() {
			prefix += c.owner(o) + "."
		}
	}
	return prefix + obj.Name()
}

// owner is the name of the top-level struct type declaring field f.
func (c *census) owner(f *types.Var) string {
	scope := f.Pkg().Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == f {
						return n
					}
				}
			}
		}
	}
	return "?"
}

// recvTypeName is a receiver's named type, without pointer or type
// arguments.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

// unreached lists, sorted, the declarations under internal/ nothing
// reaches, each as "file:line label".
func (c *census) unreached() []string {
	var out []string
	for obj := range c.decls {
		if c.reached[obj] || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		pos := c.fset.Position(obj.Pos())
		out = append(out, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, c.name(obj)))
	}
	slices.Sort(out)
	return out
}

// TestUnreadSurface is the surface census: library code only tests reach is
// not library code, so every declaration under internal/ that no program
// reaches must be named in knownUnreached with its reason, and every name
// there must still be unreached. A new declaration needs a path from a
// program. The pins hold the walk to its three non-obvious edges: a generic
// method, interface dispatch, a method value.
func TestUnreadSurface(t *testing.T) {
	if len(knownUnreached) != 22 {
		t.Errorf("knownUnreached has %d entries, want 22", len(knownUnreached))
	}
	c := loadModule(t)
	c.run(t)
	unreached := c.unreached()
	labels := map[string]bool{}
	for _, u := range unreached {
		label := u[strings.IndexByte(u, ' ')+1:]
		labels[label] = true
		if _, ok := knownUnreached[label]; !ok {
			t.Errorf("%s is reached by no program and not in knownUnreached", u)
		}
	}
	for label := range knownUnreached {
		if !labels[label] {
			t.Errorf("knownUnreached lists %s, which is reached or gone; delete the entry", label)
		}
	}
	for _, want := range []string{"rowcount.Table.Add", "mitigation.SilverBullet.OnActivate", "memctrl.Controller.applyMitRefresh"} {
		if labels[want] {
			t.Errorf("%s is listed unreached; the walk lost an edge", want)
		}
	}
	if !labels["core.Device.HammerDMA"] {
		t.Error("core.Device.HammerDMA is reached; only tests call it")
	}
	if testing.Verbose() {
		t.Logf("%d unreached:\n  %s", len(unreached), strings.Join(unreached, "\n  "))
	}
}
