// The dead-export guard: every exported function or method declared in
// internal/ or cmd/ must be referenced from some non-test file of the
// repository (perfbench/ included), unless it is a test oracle listed in
// keptOracles. Test-only API is either scaffolding that should go or a
// reference implementation that should say so.
package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptOracles lists the exported functions that only tests call, each
// kept as an independent cross-check of live code. Keys are
// "importpath.Func" or "importpath.Type.Method".
var keptOracles = map[string]string{
	"repro/internal/comm.Set.Sorted":                   "refsolve_test.go orders the reference exact solver's input with it",
	"repro/internal/comm.Set.TotalVolume":              "the load-conservation properties check total link load against it",
	"repro/internal/noc.Tracer.ExportWorkload":         "accounting_test.go cross-checks the streaming WorkloadObserver against the retained trace",
	"repro/internal/route.LoadTracker.LinksByLoadDesc": "the sort-based reference for LoadHeap's most-loaded-link order",
	"repro/internal/power.Model.LinkPower":             "the error-returning per-link power the power and heuristic tests recompute routings with",
	"repro/internal/mesh.Mesh.EnumeratePaths":          "brute-force Manhattan path enumeration behind PathCount's test and the reference exact solver",
	"repro/internal/mesh.PathCount":                    "closed-form path count checked against EnumeratePaths",
	"repro/internal/mesh.Mesh.FrontierLinks":           "the allocating frontier the PR and IG reference engines and the AppendFrontierIDs tests use",
	"repro/internal/mesh.Mesh.DiagonalLinks":           "the materialized link set the closed-form DiagonalLinkCount is checked against",
	"repro/internal/stats.Mean":                        "the summed mean the running Accumulator is checked against",
	"repro/internal/theory.Lemma2ClosedForms":          "the closed forms the Lemma 2 numeric optimum is checked against",
	"repro/internal/heur.TwoBendPaths":                 "the fuzzed two-bend path enumeration the TB and XYI tests check candidates against",
}

// deadExports returns the exported functions and methods declared in
// non-test files under root/internal and root/cmd that no non-test file
// under root references, minus the keys of allow. It also reports every
// allow key that names no such dead declaration, so the list cannot go
// stale. References are resolved by name: a package-level function
// counts as used when its package spells it bare or another file
// selects it through an import of that package; a method counts as
// used when any selector names it.
func deadExports(root string, allow map[string]string) (dead, stale []string, err error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	type decl struct {
		key, pkg, name string
		method         bool
		pos            string
	}
	var decls []decl
	funcRefs := map[string]bool{}   // "importpath.Name"
	methodRefs := map[string]bool{} // "Name"
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg = module + "/" + filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		declared := map[*ast.Ident]bool{}
		lib := strings.HasPrefix(pkg, module+"/internal/") || strings.HasPrefix(pkg, module+"/cmd/")
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !lib || !fd.Name.IsExported() {
				continue
			}
			d := decl{key: pkg + "." + fd.Name.Name, pkg: pkg, name: fd.Name.Name,
				pos: fset.Position(fd.Pos()).String()}
			if fd.Recv != nil {
				d.method = true
				d.key = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, d)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if ip, ok := imports[id.Name]; ok {
						funcRefs[ip+"."+x.Sel.Name] = true
						return false
					}
				}
				methodRefs[x.Sel.Name] = true
				ast.Inspect(x.X, visit) // x.Sel is not a bare reference
				return false
			case *ast.Ident:
				if !declared[x] {
					funcRefs[pkg+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	found := map[string]bool{}
	for _, d := range decls {
		used := funcRefs[d.pkg+"."+d.name]
		if d.method {
			used = methodRefs[d.name]
		}
		if used {
			continue
		}
		if _, ok := allow[d.key]; ok {
			found[d.key] = true
			continue
		}
		dead = append(dead, d.key+" ("+d.pos+")")
	}
	for k := range allow {
		if !found[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
}

// recvType names a method receiver's base type: T for T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func TestNoDeadExports(t *testing.T) {
	dead, stale, err := deadExports(".", keptOracles)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("exported but called only from tests (delete it, or list it in keptOracles with a reason): %s", d)
	}
	for _, k := range stale {
		t.Errorf("keptOracles entry %s names no unreferenced export; drop it", k)
	}
}

// The guard must flag an export that only a test calls, accept one that
// live code calls (bare in its package, through an import, or as a
// method), honor the allow-list, and report a stale allow entry.
func TestDeadExportsFlagsSyntheticExport(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fake\n\ngo 1.24\n")
	write("internal/lib/lib.go", `package lib

type T struct{}

func (T) Used() int     { return helper() }
func (T) TestOnly() int { return 0 }
func Called() T         { return T{} }
func helper() int       { return Bare() }
func Bare() int         { return 1 }
func Unreferenced()     {}
func Oracle()           {}
`)
	write("internal/lib/lib_test.go", `package lib

import "testing"

func TestLib(t *testing.T) { Unreferenced(); Oracle(); T{}.TestOnly() }
`)
	write("cmd/tool/main.go", `package main

import "fake/internal/lib"

func main() { _ = lib.Called().Used() }
`)
	allow := map[string]string{"fake/internal/lib.Oracle": "kept", "fake/internal/lib.Gone": "stale"}
	dead, stale, err := deadExports(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dead {
		names = append(names, strings.Fields(d)[0])
	}
	if got, want := strings.Join(names, ","), "fake/internal/lib.T.TestOnly,fake/internal/lib.Unreferenced"; got != want {
		t.Errorf("dead = %s, want %s", got, want)
	}
	if got, want := strings.Join(stale, ","), "fake/internal/lib.Gone"; got != want {
		t.Errorf("stale = %s, want %s", got, want)
	}
}
