package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unreadSurfaceLimit is how many exported identifiers under internal/ no
// program reads: the ratchet TestUnreadSurface holds. Lower it when an
// identifier leaves the list; never raise it.
const unreadSurfaceLimit = 26

// unreadSurface lists, sorted, the exported top-level identifiers declared
// under internal/ — functions, methods, types, constants, variables and the
// fields of top-level struct types — whose name appears in no non-test file
// of the module except at a declaration. The census is by name, not by type:
// any use of the name anywhere (cmd/, examples/, benchmark/ included) counts
// as a caller.
func unreadSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	type decl struct {
		name string // Recv.Name, or Name
		id   *ast.Ident
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	used := map[string]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		add := func(prefix string, id *ast.Ident) {
			if id.IsExported() {
				decls = append(decls, decl{prefix + id.Name, id})
				declared[id] = true
			}
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				prefix := ""
				if gd.Recv != nil {
					prefix = recvName(gd.Recv.List[0].Type) + "."
				}
				add(prefix, gd.Name)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("", s.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									add(s.Name.Name+".", id)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add("", id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var unread []string
	for _, d := range decls {
		if !used[d.id.Name] {
			pkg := filepath.Base(filepath.Dir(fset.Position(d.id.Pos()).Filename))
			unread = append(unread, pkg+"."+d.name)
		}
	}
	slices.Sort(unread)
	return unread
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestUnreadSurface is the surface ratchet: library code only tests call is
// not library code, so the count of unread exported identifiers may fall but
// not rise. A new exported identifier needs a non-test caller, or an existing
// unread one deleted in the same change.
func TestUnreadSurface(t *testing.T) {
	unread := unreadSurface(t)
	if len(unread) > unreadSurfaceLimit {
		t.Errorf("%d exported identifiers under internal/ have no non-test reader, limit %d:\n  %s",
			len(unread), unreadSurfaceLimit, strings.Join(unread, "\n  "))
	}
	if testing.Verbose() {
		t.Logf("%d unread:\n  %s", len(unread), strings.Join(unread, "\n  "))
	}
}
