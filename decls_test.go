package rlpm_test

// The declaration scan keeps code that nothing runs out of the tree: a
// declaration that only tests call is test code, and it belongs in the
// _test.go file that uses it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unusedAllowed admits the declarations under internal/ that no non-test
// file names but that must stay, keyed as the scan reports them, each with
// its reason.
var unusedAllowed = map[string]string{
	// Test support: non-test code that exists for tests to call.
	"core.MustPolicy": "test support: builds a policy from a config known to be valid, for the tests of core, hwpolicy and the root",
	"leaktest.Check":  "test support: the goroutine-leak check the serving tests defer",

	// Methods called through an interface.
	"serve.BackoffError.Unwrap": "called through the error interface by errors.Is and errors.As",

	// Wire protocol constants: every frame type and error code has its
	// number, though only the client side reads some answer types.
	"wire.TCreateOK":    "wire protocol constant: the create answer's frame type",
	"wire.TDecideOK":    "wire protocol constant: the decide answer's frame type",
	"wire.TRewardOK":    "wire protocol constant: the reward answer's frame type",
	"wire.TCloseOK":     "wire protocol constant: the close answer's frame type",
	"wire.CodeInternal": "wire protocol constant: the error code for a server fault",

	// Names that only the benchmark module's tests call.
	"obs.HistogramSnapshot.Quantile": "called by the benchmark module's tests, which read quantiles from scraped snapshots",
}

// TestNoUnusedDeclarations fails, naming file and line, when a non-test
// file under internal/ declares an exported func, method, type, const or
// var that no non-test .go file in the repository names, or when a non-test
// file of the root module declares an unexported one that no non-test file
// of its own package names. The scan matches names, not objects, so a
// declaration that shares its name with a used one passes. The unexported
// half stands in offline for staticcheck's U1000; the exported half looks
// across packages, which U1000 does not.
func TestNoUnusedDeclarations(t *testing.T) {
	type decl struct {
		pos       token.Position
		kind, key string
		name, dir string
	}
	var decls []decl
	names := map[string]int{}               // name → non-test uses anywhere
	pkgNames := map[string]map[string]int{} // dir → name → non-test uses in that package
	nested := map[string]bool{}             // dirs of other modules: their files only name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." {
				if n := d.Name(); strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata" {
					return filepath.SkipDir
				}
				_, err := os.Stat(filepath.Join(path, "go.mod"))
				nested[path] = nested[filepath.Dir(path)] || err == nil
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
		dir := filepath.Dir(path)
		declaring := map[*ast.Ident]bool{f.Name: true}
		if !nested[dir] {
			pkg := filepath.Base(dir)
			add := func(id *ast.Ident, kind, key string) {
				declaring[id] = true
				if id.Name == "_" || id.Name == "init" || (id.Name == "main" && f.Name.Name == "main") {
					return
				}
				decls = append(decls, decl{fset.Position(id.Pos()), kind, key, id.Name, dir})
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, "func", pkg+"."+d.Name.Name)
					} else {
						add(d.Name, "method", pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, "type", pkg+"."+s.Name.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, d.Tok.String(), pkg+"."+id.Name)
							}
						}
					}
				}
			}
		}
		if pkgNames[dir] == nil {
			pkgNames[dir] = map[string]int{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				names[id.Name]++
				pkgNames[dir][id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowedSeen := map[string]bool{}
	for _, d := range decls {
		switch {
		case token.IsExported(d.name):
			if names[d.name] > 0 || !strings.HasPrefix(filepath.ToSlash(d.dir), "internal/") {
				continue
			}
			if _, ok := unusedAllowed[d.key]; ok {
				allowedSeen[d.key] = true
				continue
			}
			t.Errorf("%s: exported %s %s is named by no non-test file; delete it or move it into the test that uses it", d.pos, d.kind, d.key)
		case pkgNames[d.dir][d.name] == 0:
			t.Errorf("%s: unexported %s %s is named by no non-test file of its package; delete it or move it into the test that uses it", d.pos, d.kind, d.key)
		}
	}
	for key := range unusedAllowed {
		if !allowedSeen[key] {
			t.Errorf("unusedAllowed admits %s, which is no longer an unused declaration under internal/; drop the entry", key)
		}
	}
}

// recvName is the type name of a method receiver: T for T and *T.
func recvName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
