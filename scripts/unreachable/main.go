// Command unreachable is the dead-export gate: it type-checks every
// package of the module (examples/ and scripts/ included) plus nested
// modules such as benchmark/, and reports each exported top-level func,
// type, const and var declared under internal/ that no non-test Go file
// references. Methods are out of scope (interface satisfaction and
// facade-aliased types make them a judgement call), and so is unexported
// code (staticcheck covers it).
//
// Identifiers kept on purpose — test oracles, paper-bench helpers — are
// named in scripts/unreachable/allowlist.txt, one per line with a reason:
//
//	openbi/internal/stats.FitPCA  the E-DIM paper bench projects with it
//
// The command exits 1 when an identifier is unreferenced and not
// allowlisted, or when an allowlist entry is stale (referenced again, or
// gone), so the list cannot rot.
//
// Usage, from the repository root:
//
//	go run ./scripts/unreachable
package main

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
)

// allowPath is the committed allowlist, relative to the repository root.
const allowPath = "scripts/unreachable/allowlist.txt"

func main() {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		fail(err)
	}
	l, err := newLoader(".")
	if err != nil {
		fail(err)
	}
	for _, path := range l.order {
		if _, err := l.load(path); err != nil {
			fail(err)
		}
	}

	var unlisted []string
	for _, c := range l.unreferenced() {
		if _, ok := allow[c.key]; ok {
			delete(allow, c.key)
			continue
		}
		unlisted = append(unlisted, fmt.Sprintf("%s: %s is exported but no non-test file references it", c.pos, c.key))
	}
	for key := range allow {
		unlisted = append(unlisted, fmt.Sprintf("%s: stale entry %s is referenced or no longer declared; remove it", allowPath, key))
	}
	sort.Strings(unlisted)
	for _, line := range unlisted {
		fmt.Println(line)
	}
	if len(unlisted) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "unreachable:", err)
	os.Exit(2)
}

// readAllowlist parses "<import path>.<Name> <reason>" lines; blank lines
// and lines starting with '#' are skipped. Every entry needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s has no reason", path, n, key)
		}
		out[key] = reason
	}
	return out, sc.Err()
}

// loader type-checks the repository's packages once each, sharing one
// types.Package per import path so that a reference from any package
// resolves to the same object as its declaration. Standard-library
// imports go through the "source" importer.
type loader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	dirs    map[string]string // import path -> directory
	order   []string          // import paths in walk order
	pkgs    map[string]*types.Package
	loading map[string]bool
	used    map[types.Object]bool // objects referenced from non-test files
}

func newLoader(root string) (*loader, error) {
	// Type-check the pure-Go variants of cgo packages (net, os/user): the
	// source importer would otherwise need a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:    map[string]string{},
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
		used:    map[types.Object]bool{},
	}
	modules := map[string]string{} // module directory -> module path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := modulePath(filepath.Join(dir, "go.mod")); err == nil {
			modules[dir] = mod
		}
		if !hasGoFiles(dir) {
			return nil
		}
		path := importPathOf(dir, modules)
		l.dirs[path] = dir
		l.order = append(l.order, path)
		return nil
	})
	return l, err
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// importPathOf joins dir's path below its innermost enclosing module onto
// that module's path.
func importPathOf(dir string, modules map[string]string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if mod, ok := modules[d]; ok {
			rel, _ := filepath.Rel(d, dir)
			if rel == "." {
				return mod
			}
			return mod + "/" + filepath.ToSlash(rel)
		}
		if d == filepath.Dir(d) {
			return filepath.ToSlash(dir)
		}
	}
}

func hasGoFiles(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if isSource(dir, e) {
			return true
		}
	}
	return false
}

// isSource reports whether e is a non-test Go file built on this platform.
func isSource(dir string, e fs.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.load(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one repository package (once), recording
// every object its files reference.
func (l *loader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	dir := l.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSource(dir, e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		l.used[obj] = true
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// candidate is one unreferenced exported identifier.
type candidate struct {
	key string // "<import path>.<Name>"
	pos string // file:line of the declaration
}

// unreferenced lists the exported package-level objects of internal/
// packages that no loaded file uses, sorted by key.
func (l *loader) unreferenced() []candidate {
	var out []candidate
	for path, pkg := range l.pkgs {
		if !strings.Contains(path+"/", "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || l.used[obj] {
				continue
			}
			switch obj.(type) {
			case *types.Func, *types.TypeName, *types.Const, *types.Var:
			default:
				continue
			}
			p := l.fset.Position(obj.Pos())
			out = append(out, candidate{key: path + "." + name, pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
