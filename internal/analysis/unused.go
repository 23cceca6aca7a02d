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

// Unused reports dead API: a package-level function or a method under
// internal/ that nothing outside its own package's _test.go files refers
// to. Nothing outside the module can import internal/, so such a
// function has no caller at all once its own tests go; keeping it alive
// costs review and maintenance for no behaviour. A reference
// implementation that tests compare against belongs in a _test.go file
// instead.
//
// Live references are read from types.Info.Uses, not from call-graph
// reachability: the graph has no edge for an interface or func-value
// call, so reachability would flag every function that is only ever
// stored in a table or passed as a callback. A reference counts as live
// when it comes from a non-test file anywhere in the module, or from a
// test file of another package (shared test helpers). A function's
// references to itself do not count. A use of a generic type's method
// is mapped to its declaration through (*types.Func).Origin.
//
// A method is also live when some module type with it in its method set
// (promoted through embedding included) implements an interface that
// declares it: a named interface of the module or of any package the
// module imports, or the predeclared error. Such a method is called
// through the interface, where no selector names it — fmt calling
// String, gob calling GobDecode.
//
// Files the loader did not type-check — another Go module nested in
// the tree (bench/), packages outside the requested patterns, test
// files under -tests=false — are parsed on the side if they import a
// module package. Their `pkg.Name` selectors on module imports count as
// references to that function, and, with no types to resolve the
// receiver, any `.Name` selector counts as a reference to every method
// of that name.
//
// The same analyzer applies the knob rule to the exported fields of
// *Config and *Options structs; see unusedFields.
var Unused = &Analyzer{
	Name:      "unused",
	Doc:       "function or method under internal/ used only by its own package's tests, or *Config/*Options field nothing outside its package writes",
	RunModule: runUnused,
}

func runUnused(pass *Pass) {
	mod := pass.Mod
	type candidate struct {
		pkg   string // declaring package's import path
		decl  *ast.FuncDecl
		label string // pkg.Func or pkg.Type.Method
	}
	cands := map[string]*candidate{}
	methods := map[string][]string{} // method name → candidate keys
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
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") || fn.Name.Name == "_" {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcObjKey(obj)
				label := pkgBase(pkg.ImportPath) + "."
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if named, ok := t.(*types.Named); ok {
						label += named.Obj().Name() + "."
					}
					methods[fn.Name.Name] = append(methods[fn.Name.Name], key)
				}
				cands[key] = &candidate{pkg: pkg.ImportPath, decl: fn, label: label + fn.Name.Name}
			}
		}
	}

	live := interfaceMethods(mod)
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
	refs := unloadedRefs(mod, loaded)
	for _, ref := range refs {
		if ref.key {
			continue
		}
		if ref.pkg != "" {
			use(ref.pkg+"."+ref.name, ref.from, ref.test, token.NoPos)
		}
		for _, key := range methods[ref.name] {
			use(key, ref.from, ref.test, token.NoPos)
		}
	}

	// Analyze sorts every diagnostic by position, so map order is moot.
	for key, c := range cands {
		if !live[key] {
			pass.Reportf(c.decl.Name.Pos(),
				"%s has no reference outside its own package's tests; delete it, or move it into a _test.go file",
				c.label)
		}
	}
	unusedFields(pass, refs)
}

// unusedFields applies the knob rule: an exported field of a struct
// named *Config or *Options, declared in a non-test file under
// internal/, is dead when no file outside the declaring package writes
// it — as a composite-literal key, an unkeyed literal element, an
// assignment or ++/-- target, or an &-operand (flag.IntVar(&cfg.N, …)).
// Writes from another package's tests count, as their calls do for
// functions; the declaring package's own writes, its defaults included,
// do not. Unloaded files (bench/) count by field name.
func unusedFields(pass *Pass, refs []syntacticRef) {
	mod := pass.Mod
	type candidate struct {
		pkg   string
		id    *ast.Ident
		label string
	}
	cands := map[*types.Var]*candidate{}
	byName := map[string][]*types.Var{}
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
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							v, ok := pkg.Info.Defs[id].(*types.Var)
							if !ok || !id.IsExported() {
								continue
							}
							cands[v] = &candidate{pkg: pkg.ImportPath, id: id, label: pkgBase(pkg.ImportPath) + "." + ts.Name.Name + "." + id.Name}
							byName[id.Name] = append(byName[id.Name], v)
						}
					}
				}
			}
		}
	}

	live := map[*types.Var]bool{}
	write := func(v *types.Var, fromPkg string) {
		if c := cands[v.Origin()]; c != nil && fromPkg != c.pkg {
			live[v.Origin()] = true
		}
	}
	for _, pkg := range mod.Packages {
		from := strings.TrimSuffix(pkg.ImportPath, "_test")
		for _, f := range pkg.Files {
			target := func(e ast.Expr) {
				writtenSelectors(e, func(sel *ast.SelectorExpr) {
					if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
						write(v, from)
					}
				})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				case *ast.CompositeLit:
					st, ok := typeUnder(pkg.Info.TypeOf(n)).(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
									write(v, from)
								}
							}
						} else if i < st.NumFields() {
							write(st.Field(i), from)
						}
					}
				}
				return true
			})
		}
	}
	for _, ref := range refs {
		if ref.key || ref.assigned {
			for _, v := range byName[ref.name] {
				write(v, ref.from)
			}
		}
	}

	for v, c := range cands {
		if !live[v] {
			pass.Reportf(c.id.Pos(),
				"%s is written by nothing outside its own package; make it a constant, or delete it with the behaviour it selects",
				c.label)
		}
	}
}

// typeUnder returns the underlying type of t, looking through one
// pointer (the &T{…} literal form).
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem().Underlying()
	}
	return t.Underlying()
}

// interfaceMethods returns the keys of the methods that some module type
// needs to implement an interface: for every type declared in a loaded
// package whose pointer implements an interface — one named in the scope
// of the module or of any package it imports, one written in module code
// (a local declaration, a literal), or error — the methods the interface
// declares, as found in that type's method set. Generic types and
// interfaces are skipped; go/types leaves Implements unspecified for
// uninstantiated ones.
func interfaceMethods(mod *Module) map[string]bool {
	// Index interfaces by their first method: a type can implement only
	// those whose first method it has.
	byFirst := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams() != nil {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] || !it.IsMethodSet() || it.NumMethods() == 0 {
			return
		}
		seenIface[it] = true
		name := it.Method(0).Name()
		byFirst[name] = append(byFirst[name], it)
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range mod.Packages {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}

	live := map[string]bool{}
	for _, pkg := range mod.Packages {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				for _, it := range byFirst[mset.At(i).Obj().Name()] {
					if !types.Implements(ptr, it) {
						continue
					}
					for j := 0; j < it.NumMethods(); j++ {
						m := it.Method(j)
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							live[funcObjKey(sel.Obj().(*types.Func))] = true
						}
					}
				}
			}
		}
	}
	return live
}

// writtenSelectors calls mark for every selector on the path a write
// goes through: cfg.Sub.X = … writes X and Sub, and cfg.List[i] = …
// writes List.
func writtenSelectors(e ast.Expr, mark func(*ast.SelectorExpr)) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			mark(x)
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// A syntacticRef is a selector found in a file the loader did not
// type-check.
type syntacticRef struct {
	pkg      string // module import path when the selector is `pkg.Name`
	name     string // the selected name, or the literal key
	from     string // import path of the referring file's directory
	test     bool
	key      bool // a composite-literal key, not a selector
	assigned bool // the selector is written: assigned, ++/--, or &-taken
}

// unloadedRefs parses every .go file under the module root that is not
// in loaded and imports a module package, and returns its selectors. The
// walk prunes the directories
// the loader prunes (testdata, vendor, hidden, _-prefixed), except on
// the way down to the working directory, so a corpus under testdata sees
// its own files.
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
		written := map[*ast.SelectorExpr]bool{}
		mark := func(sel *ast.SelectorExpr) { written[sel] = true }
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writtenSelectors(lhs, mark)
				}
			case *ast.IncDecStmt:
				writtenSelectors(n.X, mark)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writtenSelectors(n.X, mark)
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							refs = append(refs, syntacticRef{name: id.Name, from: from, test: test, key: true})
						}
					}
				}
			case *ast.SelectorExpr:
				ref := syntacticRef{name: n.Sel.Name, from: from, test: test, assigned: written[n]}
				if x, ok := n.X.(*ast.Ident); ok {
					ref.pkg = imports[x.Name]
				}
				refs = append(refs, ref)
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
