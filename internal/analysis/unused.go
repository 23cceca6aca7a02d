package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
)

// Unused reports dead API: a package-level function under internal/
// that nothing outside its own package's _test.go files refers to.
// Nothing outside the module can import internal/, so such a function
// has no caller at all once its own tests go; keeping it alive costs
// review and maintenance for no behaviour. A reference implementation
// that tests compare against belongs in a _test.go file instead.
//
// Live references are read from types.Info.Uses, not from call-graph
// reachability: the graph has no edge for an interface or func-value
// call, so reachability would flag every function that is only ever
// stored in a table or passed as a callback. A reference counts as live
// when it comes from a non-test file anywhere in the module, or from a
// test file of another package (shared test helpers). A function's
// references to itself do not count.
//
// Files the loader did not type-check — another Go module nested in
// the tree (bench/), packages outside the requested patterns, test
// files under -tests=false — are parsed on the side and contribute
// their `pkg.Name` selectors on module imports as references.
var Unused = &Analyzer{
	Name:      "unused",
	Doc:       "package-level function under internal/ referenced only by its own package's tests",
	RunModule: runUnused,
}

func runUnused(pass *Pass) {
	mod := pass.Mod
	type candidate struct {
		pkg  string // declaring package's import path
		decl *ast.FuncDecl
	}
	cands := map[string]*candidate{}
	internal := mod.Path + "/internal/"
	for _, pkg := range mod.Packages {
		if !strings.HasPrefix(pkg.ImportPath, internal) || strings.HasSuffix(pkg.ImportPath, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(mod.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					cands[funcObjKey(obj)] = &candidate{pkg: pkg.ImportPath, decl: fn}
				}
			}
		}
	}

	live := map[string]bool{}
	use := func(key, fromPkg string, fromTest bool, pos token.Pos) {
		c := cands[key]
		if c == nil || (fromTest && fromPkg == c.pkg) || (pos >= c.decl.Pos() && pos < c.decl.End()) {
			return
		}
		live[key] = true
	}
	loaded := map[string]bool{}
	for _, pkg := range mod.Packages {
		from := strings.TrimSuffix(pkg.ImportPath, "_test")
		for _, f := range pkg.Files {
			loaded[mod.Fset.Position(f.Pos()).Filename] = true
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			use(funcObjKey(fn), from, strings.HasSuffix(mod.Fset.Position(id.Pos()).Filename, "_test.go"), id.Pos())
		}
	}
	for _, ref := range unloadedRefs(mod, loaded) {
		use(ref.key, ref.from, ref.test, token.NoPos)
	}

	// Analyze sorts every diagnostic by position, so map order is moot.
	for key, c := range cands {
		if !live[key] {
			pass.Reportf(c.decl.Name.Pos(),
				"%s.%s has no reference outside its own package's tests; delete it, or move it into a _test.go file",
				pkgBase(c.pkg), c.decl.Name.Name)
		}
	}
}

// A syntacticRef is a `pkg.Name` selector on a module import, found in
// a file the loader did not type-check.
type syntacticRef struct {
	key  string // importPath.Name, the same form as funcObjKey
	from string // import path of the referring file's directory
	test bool
}

// unloadedRefs parses every .go file under the module root that is not
// in loaded and returns its selectors on module imports. The walk prunes
// the directories the loader prunes (testdata, vendor, hidden, _-prefixed),
// except on the way down to the working directory, so a corpus under
// testdata sees its own files.
func unloadedRefs(mod *Module, loaded map[string]bool) []syntacticRef {
	var refs []syntacticRef
	fset := token.NewFileSet()
	_ = filepath.WalkDir(mod.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			pruned := name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
			if path != mod.Root && pruned && !isAncestor(path, mod.WorkDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || loaded[path] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		imports := map[string]string{} // local name → module import path
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ipath, mod.Path+"/") {
				continue
			}
			local := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ipath
		}
		if len(imports) == 0 {
			return nil
		}
		from := mod.Path
		if rel, err := filepath.Rel(mod.Root, filepath.Dir(path)); err == nil && rel != "." {
			from += "/" + filepath.ToSlash(rel)
		}
		test := strings.HasSuffix(name, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refs = append(refs, syntacticRef{imports[x.Name] + "." + sel.Sel.Name, from, test})
				}
			}
			return true
		})
		return nil
	})
	return refs
}

// isAncestor reports whether dir is path or lies below it.
func isAncestor(path, dir string) bool {
	return dir == path || strings.HasPrefix(dir, path+string(filepath.Separator))
}
