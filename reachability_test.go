package vap_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestReachability computes the rule that production code is what a
// binary reaches. It links every cmd/ and examples/ main and the bench
// module with inlining off, so a called function keeps its own symbol,
// and reads the linker's text symbols. Every function and method that
// a non-main package of this module declares (its build-selected
// GoFiles, so a twin for another architecture is not counted) must be
// among them, be an exported name of the vap facade, or be listed in
// testdata/unreached.txt. A listed function that is now reached or no
// longer exists fails the test too, so the list only shrinks truthfully.
// The built vapd and vapql are run once, with -h, to hold their flags to
// the lists written here.
func TestReachability(t *testing.T) {
	bin := t.TempDir()
	goCmd(t, ".", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goCmd(t, "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")
	checkFlags(t, filepath.Join(bin, "vapd"), "addr", "days", "dir", "interval", "mem-budget", "mysql-addr", "mysql-users", "seed", "stream", "tenant-quotas", "workers")
	checkFlags(t, filepath.Join(bin, "vapql"), "days", "dir", "e", "seed", "workers")

	reached := map[string]bool{}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		sc := bufio.NewScanner(bytes.NewReader(goCmd(t, ".", "tool", "nm", filepath.Join(bin, b.Name()))))
		for sc.Scan() {
			// "addr T name"; a name may hold spaces inside a shape's brackets.
			_, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
			if kind, name, ok := strings.Cut(strings.TrimSpace(rest), " "); ok && (kind == "T" || kind == "t") {
				reached[strings.TrimSuffix(stripBrackets(name), ".abi0")] = true
			}
		}
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	unreached := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(goCmd(t, ".", "list", "-json", "./...")))
	for dec.More() {
		var pkg struct {
			ImportPath, Name, Dir string
			GoFiles               []string
		}
		if err := dec.Decode(&pkg); err != nil {
			t.Fatal(err)
		}
		if pkg.Name == "main" {
			continue
		}
		for _, file := range pkg.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkg.Dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				if pkg.Dir == root && fn.Recv == nil && fn.Name.IsExported() {
					continue // the facade's exports are roots
				}
				if sym := pkg.ImportPath + "." + linkerName(fn); !reached[sym] {
					unreached[sym] = true
				}
			}
		}
	}

	listed, err := os.ReadFile(filepath.Join("testdata", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, line := range strings.Split(string(listed), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !unreached[line] {
			stale = append(stale, line)
		}
		delete(unreached, line)
	}
	var dead []string
	for sym := range unreached {
		dead = append(dead, sym)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("production functions no binary reaches (delete them, or list them with a reason in testdata/unreached.txt):\n\t%s", strings.Join(dead, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("testdata/unreached.txt lists functions that are reached or gone (drop their lines):\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// checkFlags runs the built main bin with -h and fails t unless its usage
// lists exactly the flags kept (sorted, as the flag package prints them):
// a setting that no caller turns is a constant, so a flag added or dropped
// fails by name. The child is waited for; one still running after ten
// seconds is killed, so none outlives the test.
func checkFlags(t *testing.T, bin string, kept ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	out, err := exec.CommandContext(ctx, bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", filepath.Base(bin), err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			got = append(got, name)
		}
	}
	if !slices.Equal(got, kept) {
		t.Errorf("%s flags = %v, want %v", filepath.Base(bin), got, kept)
	}
}

// linkerName spells a declaration as the linker does: F, T.M or (*T).M.
func linkerName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ, star := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// stripBrackets drops the type arguments of a generic instantiation:
// packLevel[go.shape.[]int64] is packLevel.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}
