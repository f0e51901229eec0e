package vap_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestUnturnedKnobs computes for settings what TestReachability computes
// for functions: a setting nothing turns is a constant. It type-checks
// every package of this module and bench/ from source, against the
// compiler's export data for their imports, and records every write to a
// field: a composite-literal element, keyed or positional, an assignment,
// op-assignment or ++/-- on a selector, or &x.F. A field of a struct
// declared under internal/ that production code reads, and that no
// production code writes but its own package's defaults method, fails the
// test unless testdata/unturned.txt lists it. Tests are type-checked too
// (each package with its _test.go files, and its external tests), so the
// failure says whether only tests set the field or nothing does. Fields of
// a type vap.go aliases are the facade's, and bench/ is production. A
// listed field that production now writes, or that is gone, fails the
// test too, so the list only shrinks truthfully.
func TestUnturnedKnobs(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string]*fieldUse{}
	roots := map[string]bool{}
	check := func(exports map[string]string, pkg listedPackage, tests bool) {
		files := make([]*ast.File, len(pkg.GoFiles))
		for i, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if p, ok := pkg.ImportMap[path]; ok {
				path = p
			}
			return os.Open(exports[path])
		})
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		// A test variant's ID is "path [path.test]"; its types are path's.
		path, _, _ := strings.Cut(pkg.ImportPath, " ")
		tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", pkg.ImportPath, err)
		}
		if path == "vap" && !tests {
			for _, name := range tpkg.Scope().Names() {
				if tn, ok := tpkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						roots[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
					}
				}
			}
		}
		for _, f := range files {
			if tests != strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			recordFieldUses(f, tpkg.Path(), info, tests, fields)
		}
	}

	pkgs, exports := listPackages(t, ".", "-test", "./...")
	for _, pkg := range pkgs {
		if pkg.Standard || strings.HasSuffix(pkg.ImportPath, ".test") {
			continue
		}
		if pkg.ForTest == "" {
			check(exports, pkg, false)
		}
		if slices.ContainsFunc(pkg.GoFiles, func(f string) bool { return strings.HasSuffix(f, "_test.go") }) {
			check(exports, pkg, true)
		}
	}
	pkgs, exports = listPackages(t, "bench", ".")
	for _, pkg := range pkgs {
		if pkg.ImportPath == "vap/bench" {
			check(exports, pkg, false)
		}
	}

	unturned := map[string]*fieldUse{}
	for key, use := range fields {
		owner := key[:strings.LastIndexByte(key, '.')]
		if strings.HasPrefix(key, "vap/internal/") && !roots[owner] && use.prodRead && use.defaultsWrite && !use.prodWrite {
			unturned[key] = use
		}
	}
	listed, err := os.ReadFile(filepath.Join("testdata", "unturned.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, line := range strings.Split(string(listed), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if unturned[line] == nil {
			stale = append(stale, line)
		}
		delete(unturned, line)
	}
	var found []string
	for key, use := range unturned {
		who := "nothing else writes it"
		if use.testWrite {
			who = "only tests write it"
		}
		found = append(found, key+" ("+who+")")
	}
	sort.Strings(found)
	if len(found) > 0 {
		t.Errorf("config fields that production reads and only their package's defaults method sets (make them constants, or list them with a reason in testdata/unturned.txt):\n\t%s", strings.Join(found, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("testdata/unturned.txt lists fields that production writes, or that are gone (drop their lines):\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// fieldUse is what the type-checked packages do with one struct field.
type fieldUse struct {
	prodRead, prodWrite, defaultsWrite, testWrite bool
}

// recordFieldUses walks one file of package path and marks every field it
// reads or writes, keyed pkgpath.Type.Field. In a _test.go file (tests)
// only writes count.
func recordFieldUses(f *ast.File, path string, info *types.Info, tests bool, fields map[string]*fieldUse) {
	use := func(key string) *fieldUse {
		if fields[key] == nil {
			fields[key] = &fieldUse{}
		}
		return fields[key]
	}
	written := map[*ast.SelectorExpr]bool{}
	var defaults bool // inside a method named defaults
	write := func(key string) {
		switch {
		case key == "":
		case tests:
			use(key).testWrite = true
		case defaults && strings.HasPrefix(key, path+"."):
			use(key).defaultsWrite = true
		default:
			use(key).prodWrite = true
		}
	}
	writeSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel] = true
			write(selectedField(info, sel))
		}
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		defaults = ok && fn.Recv != nil && fn.Name.Name == "defaults"
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := info.TypeOf(n)
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				named, ok := types.Unalias(typ).(*types.Named)
				if !ok {
					break
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					name := ""
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						name = kv.Key.(*ast.Ident).Name
					} else {
						name = st.Field(i).Name()
					}
					write(fieldKey(named, name))
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						writeSel(lhs)
					}
				}
			case *ast.IncDecStmt:
				writeSel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writeSel(n.X)
				}
			case *ast.SelectorExpr:
				if key := selectedField(info, n); key != "" && !written[n] && !tests {
					use(key).prodRead = true
				}
			}
			return true
		})
	}
}

// selectedField is the key of the field sel selects, "" if it selects
// something else or a field of an unnamed struct. A promoted field belongs
// to the struct that declares it.
func selectedField(info *types.Info, sel *ast.SelectorExpr) string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	var owner *types.Named
	var name string
	typ := s.Recv()
	for _, i := range s.Index() {
		if ptr, ok := types.Unalias(typ).(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		owner, _ = types.Unalias(typ).(*types.Named)
		field := typ.Underlying().(*types.Struct).Field(i)
		name, typ = field.Name(), field.Type()
	}
	if owner == nil {
		return ""
	}
	return fieldKey(owner, name)
}

func fieldKey(owner *types.Named, name string) string {
	obj := owner.Origin().Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + name
}

// listedPackage is the part of a `go list -json` record the check reads.
type listedPackage struct {
	ImportPath, Dir, ForTest, Export string
	Standard                         bool
	GoFiles                          []string
	ImportMap                        map[string]string
}

// listPackages runs `go list -export -deps -json` in dir and returns its
// packages and each one's export data file by package ID.
func listPackages(t *testing.T, dir string, args ...string) ([]listedPackage, map[string]string) {
	out := goCmd(t, dir, append([]string{"list", "-export", "-deps", "-json"}, args...)...)
	var pkgs []listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var pkg listedPackage
		if err := dec.Decode(&pkg); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
		exports[pkg.ImportPath] = pkg.Export
	}
	return pkgs, exports
}
