// Package vet implements mbpvet, the repository's own static analyzer. It
// loads MBPlib's source with the standard library's go/parser and go/types
// (no third-party dependencies) and enforces the contracts that the MBPlib
// paper states only in prose: Predict purity (§IV-A), registry completeness,
// error propagation in the trace codecs, and the bit-width invariants of the
// SBBT/BT9 formats (§IV-C). See the "Static analysis" section of README.md
// for the rule catalogue.
package vet

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package of the analyzed module.
type Package struct {
	// Path is the import path, e.g. "mbplib/internal/sbbt".
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checking results for Files.
	Info *types.Info
}

// Program is a loaded module: every package reachable from the requested
// directories plus the shared FileSet needed to render positions.
type Program struct {
	Fset   *token.FileSet
	Module string
	// Root is the absolute module directory. Positions quoted inside
	// finding messages are rendered relative to it, like the finding
	// locations themselves, so output does not depend on the checkout.
	Root string
	// Packages is keyed by import path and includes only module-local
	// packages (stdlib dependencies are type-checked but not analyzed).
	Packages map[string]*Package
}

// Sorted returns the module packages in deterministic import-path order.
func (p *Program) Sorted() []*Package {
	paths := make([]string, 0, len(p.Packages))
	for path := range p.Packages {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, path := range paths {
		out[i] = p.Packages[path]
	}
	return out
}

// loader resolves module-local import paths by parsing and type-checking
// the corresponding directory on demand; everything else is delegated to
// the standard library's source importer.
type loader struct {
	fset     *token.FileSet
	root     string // directory containing the module, e.g. the repo root
	module   string // module path from go.mod, e.g. "mbplib"
	std      types.Importer
	pkgs     map[string]*Package
	loading  map[string]bool // import cycle detection
	errs     []error
	typeErrs []error
}

// Load parses and type-checks the module rooted at root (the directory
// holding go.mod, with module path module). Every directory under root that
// contains non-test .go files becomes a package; testdata and hidden
// directories are skipped. Type errors are fatal: the analyzer only runs on
// code that compiles.
func Load(root, module string) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    abs,
		module:  module,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := l.load(l.importPath(dir)); err != nil {
			return nil, err
		}
	}
	if len(l.typeErrs) > 0 {
		return nil, fmt.Errorf("vet: %d type errors, first: %v", len(l.typeErrs), l.typeErrs[0])
	}
	return &Program{Fset: l.fset, Module: module, Root: abs, Packages: l.pkgs}, nil
}

// ModulePath reads the module path from the go.mod at root.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("vet: no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// buildConstraintsMatch evaluates a parsed file's //go:build lines against
// the host configuration, so a pair of tag-gated files (the repo's
// `race`/`!race` constant pairs) type-checks as one coherent package
// instead of a redeclaration. The tag universe mirrors a default `go
// build`: GOOS, GOARCH, the gc toolchain, `unix` for unix-like GOOS, and
// every `go1.N` release tag; custom tags like `race` read as unset, which
// matches mbpvet's own uninstrumented build.
func buildConstraintsMatch(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: let the build complain, not vet
			}
			if !expr.Eval(hostBuildTag) {
				return false
			}
		}
	}
	return true
}

// hostBuildTag reports whether one build tag is satisfied on the host.
func hostBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos", "aix":
			return true
		}
	}
	return strings.HasPrefix(tag, "go1.")
}

// packageDirs walks the module tree collecting directories that hold
// non-test Go files.
func (l *loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// importPath maps a directory under the module root to its import path.
func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-local import path back to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.module+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// Import implements types.Importer, routing module-local paths to the
// on-demand loader and everything else to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module-local package, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("vet: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: parsing %s: %w", name, err)
		}
		if !buildConstraintsMatch(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
	}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
