// The dead-export guard: every exported function or method declared in
// internal/ or cmd/ must be referenced from some non-test file of the
// repository (perfbench/ included), unless it is a test oracle or kept
// API listed in keptOracles. Test-only API is either scaffolding that should go or a
// reference implementation that should say so.
package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"repro/internal/route.Routing.Clone":               "the documented way to keep a routing past the reuse of the workspace that produced it",
	"repro/internal/power.Model.LinkPowerOK":           "the reference TestEvaluatorMatchesModel pins the compiled Evaluator.LinkPowerOK to",
}

// deadExports returns the exported functions and methods declared in
// non-test files under root/internal and root/cmd that no non-test file
// under root references, minus the keys of allow. It also reports every
// allow key that names no such dead declaration, so the list cannot go
// stale. References are resolved by type: every package of the module
// (and of modules nested in it under the same path prefix) is
// type-checked with go/types, and a declaration counts as used when an
// identifier in a non-test file resolves to it. A method also counts as
// used when its type satisfies a named interface with a method of that
// name, declared in a scanned package or in a standard library package
// one imports: such a method can be called through the interface, by
// the standard library (String, Error, Write) as much as by the module.
func deadExports(root string, allow map[string]string) (dead, stale []string, err error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	l := &loader{root: root, module: module, fset: token.NewFileSet(), pkgs: map[string]*checked{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := module
		if rel != "." {
			ip = module + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != ip {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, ip := range paths {
		if _, err := l.load(ip); err != nil {
			return nil, nil, err
		}
	}

	used := map[*types.Func]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIfaces := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, c := range l.pkgs {
		addIfaces(c.pkg)
		for _, im := range c.pkg.Imports() {
			if _, ours := l.pkgs[im.Path()]; !ours {
				addIfaces(im)
			}
		}
		for _, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	viaInterface := func(fn *types.Func) bool {
		named, ok := fn.Type().(*types.Signature).Recv().Type().(*types.Named)
		if p, isPtr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); isPtr {
			named, ok = p.Elem().(*types.Named)
		}
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	found := map[string]bool{}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, module+"/internal/") && !strings.HasPrefix(ip, module+"/cmd/") {
			continue
		}
		c := l.pkgs[ip]
		for _, f := range c.files {
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				key := ip + "." + fd.Name.Name
				if fd.Recv != nil {
					key = ip + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				if used[fn] || (fd.Recv != nil && viaInterface(fn)) {
					continue
				}
				if _, ok := allow[key]; ok {
					found[key] = true
					continue
				}
				dead = append(dead, key+" ("+l.fset.Position(fd.Pos()).String()+")")
			}
		}
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

// checked is one type-checked package of the scan.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the module's packages from source on demand,
// serving standard library imports from std.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*checked
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	c, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// load type-checks the package at import path ip from the non-test files
// of its directory that the default build context selects.
func (l *loader) load(ip string) (*checked, error) {
	if c, ok := l.pkgs[ip]; ok {
		return c, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(ip, l.module), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(ip, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ip, err)
	}
	c := &checked{pkg: pkg, files: files, info: info}
	l.pkgs[ip] = c
	return c, nil
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
// live code calls (bare in its package, through an import, as a method,
// or through an interface of the module or the standard library),
// resolve methods by type rather than by name, honor the allow-list, and
// report a stale allow entry.
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

import "fmt"

type T struct{}
type U struct{}
type I interface{ M() }

func (T) Used() int      { return helper() }
func (T) TestOnly() int  { return 0 }
func (T) M()             {}
func (U) Used() int      { return 0 }
func (U) String() string { return "u" }
func Called() T          { return T{} }
func helper() int        { var i I = T{}; i.M(); return len(fmt.Sprint(U{})) + Bare() }
func Bare() int          { return 1 }
func Unreferenced()      {}
func Oracle()            {}
`)
	write("internal/lib/lib_test.go", `package lib

import "testing"

func TestLib(t *testing.T) { Unreferenced(); Oracle(); T{}.TestOnly(); U{}.Used() }
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
	if got, want := strings.Join(names, ","), "fake/internal/lib.T.TestOnly,fake/internal/lib.U.Used,fake/internal/lib.Unreferenced"; got != want {
		t.Errorf("dead = %s, want %s", got, want)
	}
	if got, want := strings.Join(stale, ","), "fake/internal/lib.Gone"; got != want {
		t.Errorf("stale = %s, want %s", got, want)
	}
}
