package analysis

import (
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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Package is one type-checked analysis unit: a package's compiled files
// plus (when tests are included) its in-package test files; external test
// packages (package foo_test) form their own unit.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker complaints; analysis continues on
	// partial information, but the driver surfaces them and fails the run.
	TypeErrors []error
	// Deterministic marks packages under the seeded-determinism contract.
	Deterministic bool
	// OwnedGoroutines marks packages whose `go` statements must carry a
	// visible stop/wait path (//dsps:owned-goroutines or built-in list).
	OwnedGoroutines bool
}

// A Loader discovers, parses, and type-checks packages of one module using
// only the standard library (source importer — no x/tools).
//
// Load is two-phase and parallel: every package directory is parsed
// concurrently, then units are type-checked in dependency waves with up
// to GOMAXPROCS checkers in flight. A unit that finishes checking
// registers its *types.Package in the self-serve table, so a later unit
// importing it gets the already-checked package instead of the source
// importer re-checking the same directory from scratch — module
// packages are type-checked exactly once per run. Imports the table
// cannot serve (stdlib, module packages outside the requested patterns,
// the rare test-import cycle) fall through to the stdlib source
// importer, which caches per path as before.
type Loader struct {
	Root         string // module root: the directory holding go.mod
	Module       string // module path from go.mod
	WorkDir      string // directory patterns are resolved against
	IncludeTests bool
	Fset         *token.FileSet

	// impMu guards the source importer and the self-serve table: the
	// importer is not safe for concurrent use, and checkers on other
	// goroutines publish into selfServe.
	impMu     sync.Mutex
	imp       types.ImporterFrom
	selfServe map[string]*types.Package
}

// NewLoader locates the enclosing module of dir and prepares a loader.
func NewLoader(dir string, includeTests bool) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("dspslint: no go.mod found above %s", abs)
		}
		root = parent
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:         root,
		Module:       module,
		WorkDir:      abs,
		IncludeTests: includeTests,
		Fset:         fset,
		selfServe:    map[string]*types.Package{},
	}
	l.imp = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("dspslint: no module directive in %s", path)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom. Already-checked units are
// served from the self-serve table; everything else goes through the one
// source-importer universe, resolved relative to the module root so
// module-internal import paths work regardless of the process's working
// directory. Because wave scheduling checks a unit only after its
// module-internal dependencies registered themselves, type identity
// stays consistent across units. (One visible improvement over the pure
// source importer: an external test package now sees helpers defined in
// its package's in-package test files, matching `go test` semantics.)
func (l *Loader) ImportFrom(path, _ string, mode types.ImportMode) (*types.Package, error) {
	l.impMu.Lock()
	defer l.impMu.Unlock()
	if pkg, ok := l.selfServe[path]; ok && pkg != nil && pkg.Complete() {
		return pkg, nil
	}
	return l.imp.ImportFrom(path, l.Root, mode)
}

// parsedUnit is one parsed-but-unchecked analysis unit.
type parsedUnit struct {
	path    string // import path ("…_test" for external test units)
	dir     string
	files   []*ast.File
	imports map[string]bool // module-internal imports (base paths)
	base    bool            // compiled package (importable), not an external test unit
}

// Load resolves the patterns (a directory, or a `dir/...` subtree) and
// returns the type-checked packages in deterministic order.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}

	// Phase 1: parse every directory concurrently. The FileSet is safe
	// for concurrent AddFile; each directory's parse is independent.
	unitsPerDir := make([][]*parsedUnit, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism())
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			unitsPerDir[i], errs[i] = l.parseDir(dir)
		}(i, dir)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var units []*parsedUnit
	for _, us := range unitsPerDir {
		units = append(units, us...)
	}

	// Phase 2: type-check in dependency waves, up to GOMAXPROCS units in
	// flight, publishing each finished base unit for the importer.
	checked := l.checkUnits(units)

	// Return packages in the original deterministic (sorted-dir) order.
	out := make([]*Package, 0, len(units))
	for _, u := range units {
		out = append(out, checked[u])
	}
	return out, nil
}

// parallelism is the checker/parser pool size.
func parallelism() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// checkUnits type-checks units in dependency order: a unit whose
// module-internal imports are all registered can start; units in a
// dependency cycle through test imports (legal in Go, impossible for
// compiled packages) are checked last and resolve those imports through
// the source importer instead.
func (l *Loader) checkUnits(units []*parsedUnit) map[*parsedUnit]*Package {
	byPath := map[string]*parsedUnit{}
	for _, u := range units {
		if u.base {
			byPath[u.path] = u
		}
	}
	// deps: edges to in-set module units this unit must wait for.
	deps := map[*parsedUnit][]*parsedUnit{}
	indeg := map[*parsedUnit]int{}
	dependents := map[*parsedUnit][]*parsedUnit{}
	for _, u := range units {
		for imp := range u.imports {
			if d, ok := byPath[imp]; ok && d != u {
				deps[u] = append(deps[u], d)
				indeg[u]++
				dependents[d] = append(dependents[d], u)
			}
		}
		// External test units also wait for their base package.
		if !u.base {
			if d, ok := byPath[strings.TrimSuffix(u.path, "_test")]; ok {
				deps[u] = append(deps[u], d)
				indeg[u]++
				dependents[d] = append(dependents[d], u)
			}
		}
	}

	checked := make(map[*parsedUnit]*Package, len(units))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism())
	var schedule func(u *parsedUnit)
	schedule = func(u *parsedUnit) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			pkg := l.check(u.path, u.dir, u.files)
			<-sem
			mu.Lock()
			checked[u] = pkg
			if u.base {
				l.impMu.Lock()
				l.selfServe[u.path] = pkg.Types
				l.impMu.Unlock()
			}
			var ready []*parsedUnit
			for _, d := range dependents[u] {
				indeg[d]--
				if indeg[d] == 0 {
					ready = append(ready, d)
				}
			}
			mu.Unlock()
			for _, d := range ready {
				schedule(d)
			}
		}()
	}
	var roots []*parsedUnit
	for _, u := range units {
		if indeg[u] == 0 {
			roots = append(roots, u)
		}
	}
	for _, u := range roots {
		schedule(u)
	}
	wg.Wait()

	// Anything still unchecked sits in a test-import cycle: check it
	// serially; its cyclic imports fall through to the source importer.
	for _, u := range units {
		if checked[u] == nil {
			checked[u] = l.check(u.path, u.dir, u.files)
		}
	}
	return checked
}

// expand resolves patterns to package directories, sorted and deduplicated.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.WorkDir, base)
		}
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("dspslint: %s: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("dspslint: %s is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory to its import path within the module.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// parseDir parses one directory into its analysis units: the compiled
// package (with in-package test files when enabled) and, separately, the
// external test package if one exists.
func (l *Loader) parseDir(dir string) ([]*parsedUnit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Only the files the go command builds on this platform: a
		// package may define one name in files with exclusive
		// build constraints (internal/ring's futex_linux.go and
		// futex_other.go).
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	// Split into the compiled package (plus in-package test files) and the
	// external test package. The base package name comes from the first
	// non-test file; a directory holding only test files keeps whatever
	// name those files declare.
	baseName := ""
	for i, f := range files {
		if !strings.HasSuffix(names[i], "_test.go") {
			baseName = f.Name.Name
			break
		}
	}
	var baseFiles, extFiles []*ast.File
	for _, f := range files {
		name := f.Name.Name
		switch {
		case baseName == "" && strings.HasSuffix(name, "_test"):
			extFiles = append(extFiles, f)
		case baseName != "" && name == baseName+"_test":
			extFiles = append(extFiles, f)
		default:
			baseFiles = append(baseFiles, f)
		}
	}
	path := l.importPathFor(dir)
	var out []*parsedUnit
	if len(baseFiles) > 0 {
		out = append(out, &parsedUnit{
			path: path, dir: dir, files: baseFiles, base: true,
			imports: l.moduleImports(baseFiles),
		})
	}
	if len(extFiles) > 0 {
		out = append(out, &parsedUnit{
			path: path + "_test", dir: dir, files: extFiles,
			imports: l.moduleImports(extFiles),
		})
	}
	return out, nil
}

// moduleImports collects the module-internal import paths of a file set.
func (l *Loader) moduleImports(files []*ast.File) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
				out[path] = true
			}
		}
	}
	return out
}

// check type-checks one unit, collecting (rather than failing on) type
// errors so analyzers can still run on partial information.
func (l *Loader) check(path, dir string, files []*ast.File) *Package {
	pkg := &Package{ImportPath: path, Dir: dir, Files: files}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info) // errors land in pkg.TypeErrors
	pkg.Types = tpkg
	pkg.Info = info
	for _, f := range files {
		if fileDeterministic(f) {
			pkg.Deterministic = true
		}
		if fileOwnedGoroutines(f) {
			pkg.OwnedGoroutines = true
		}
	}
	return pkg
}
