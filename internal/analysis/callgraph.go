package analysis

// Interprocedural layer: a module-wide call graph over the type-checked
// packages, with //dsps:hotpath and determinism taint propagated along
// its edges. Per-function analyzers consult the graph to decide whether
// a function is "hot" (reachable from an annotated root) or
// determinism-relevant (reachable from a deterministic package), and the
// module analyzers (lockorder, goroleak) traverse it directly.
//
// Soundness limits, by construction:
//
//   - Static calls, method calls through concrete receiver types, and
//     the calls inside `go`/`defer` statements produce edges. Interface
//     method calls and calls through func values produce NO edge — the
//     callee set is unknowable without whole-program type flow. Such
//     sites are counted (CallGraph.Dynamic) and surfaced in the
//     baseline so growth of the blind spot is at least diffable.
//   - A function literal's body is attributed to its enclosing
//     declaration: calls inside a closure become edges from the
//     enclosing function. Literals spawned by a `go` statement are the
//     exception — their calls become EdgeGo edges, which hot-path taint
//     does not cross (the spawned goroutine is concurrent with, not
//     part of, the hot path). Determinism taint crosses all edge kinds.
//   - Edges into packages outside the loaded set (stdlib, out-of-pattern
//     module packages) terminate at body-less external nodes; taint
//     stops there.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-module view every pass shares.
type Module struct {
	Fset     *token.FileSet
	Root     string // module root directory
	WorkDir  string // directory the patterns resolved against
	Path     string // module path from go.mod
	Packages []*Package
	Graph    *CallGraph
}

// An EdgeKind classifies how a call site transfers control.
type EdgeKind uint8

const (
	// EdgeCall is a plain synchronous call (including calls made inside
	// non-go function literals, attributed to the enclosing function).
	EdgeCall EdgeKind = iota
	// EdgeGo marks calls that start a new goroutine: the `go` statement's
	// own call, and every call inside a `go func(){...}` literal body.
	EdgeGo
	// EdgeDefer marks a deferred call; it still runs on the caller's
	// goroutine, so taint treats it like EdgeCall.
	EdgeDefer
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	default:
		return "call"
	}
}

// An Edge is one resolved call site.
type Edge struct {
	Caller *FuncNode
	Callee *FuncNode
	Kind   EdgeKind
	Pos    token.Pos
}

// A FuncNode is one function in the call graph. Nodes for functions
// declared in loaded packages carry their declaration; calls into
// packages outside the loaded set produce body-less external nodes.
type FuncNode struct {
	Key   string // stable qualified name, identical across type-check universes
	Label string // compact diagnostic name: pkgname.(*Recv).Method
	Func  *types.Func
	Decl  *ast.FuncDecl // nil for external nodes
	Pkg   *Package      // nil for external nodes
	Out   []*Edge
	In    []*Edge

	// Direct annotations from the doc comment.
	Hotpath      bool   // //dsps:hotpath
	Coldpath     bool   // //dsps:coldpath
	AllocsReason string // //dsps:allocs justification ("" = none)

	// Propagated taint. HotVia/DetVia record the edge the taint arrived
	// through (nil on a directly annotated root / in-package function),
	// so diagnostics can print a witness chain.
	HotTainted bool
	HotVia     *Edge
	DetTainted bool
	DetVia     *Edge
}

// External reports whether the node has no loaded source.
func (n *FuncNode) External() bool { return n.Decl == nil }

// HotChain renders the witness path from an annotated root to n, e.g.
// "dsps.(*spoutCollector).Emit → dsps.(*runningTopology).routeInto".
func (n *FuncNode) HotChain() string { return chain(n, func(m *FuncNode) *Edge { return m.HotVia }) }

// DetChain renders the witness path from a deterministic package to n.
func (n *FuncNode) DetChain() string { return chain(n, func(m *FuncNode) *Edge { return m.DetVia }) }

func chain(n *FuncNode, via func(*FuncNode) *Edge) string {
	var names []string
	for m := n; m != nil; {
		names = append(names, m.Label)
		e := via(m)
		if e == nil {
			break
		}
		m = e.Caller
	}
	// Reverse: root first.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	Nodes map[string]*FuncNode
	// DeclNodes maps a function declaration to its node, for per-package
	// analyzers walking file ASTs.
	DeclNodes map[*ast.FuncDecl]*FuncNode
	// Edges is the total resolved edge count; Dynamic counts call sites
	// with no static callee (interface dispatch, func values) — the
	// graph's documented blind spot.
	Edges   int
	Dynamic int
}

// NodeAt returns the graph node for a declaration (nil when the
// declaration failed to type-check).
func (g *CallGraph) NodeAt(decl *ast.FuncDecl) *FuncNode { return g.DeclNodes[decl] }

// buildModule constructs the module view: call graph plus propagated
// taint.
func buildModule(l *Loader, pkgs []*Package) *Module {
	m := &Module{Fset: l.Fset, Root: l.Root, WorkDir: l.WorkDir, Path: l.Module, Packages: pkgs}
	g := &CallGraph{Nodes: map[string]*FuncNode{}, DeclNodes: map[*ast.FuncDecl]*FuncNode{}}
	m.Graph = g

	// Pass 1: a node per function declaration in every loaded package.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				node := &FuncNode{
					Key:      declKey(l.Fset, pkg, fn, obj),
					Label:    pkgBase(pkg.ImportPath) + "." + funcLabel(fn),
					Func:     obj,
					Decl:     fn,
					Pkg:      pkg,
					Hotpath:  isHotpath(fn),
					Coldpath: hasDirective(fn.Doc, coldpathDirective),
				}
				if reason, ok := directiveArg(fn.Doc, allocsDirective); ok {
					if reason == "" {
						reason = "(no justification given)"
					}
					node.AllocsReason = reason
				}
				g.Nodes[node.Key] = node
				g.DeclNodes[fn] = node
			}
		}
	}

	// Pass 2: edges from every body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				node := g.DeclNodes[fn]
				if node == nil {
					continue
				}
				b := &edgeWalker{g: g, node: node, info: pkg.Info}
				b.walk(fn.Body, EdgeCall)
			}
		}
	}

	g.propagateHot()
	g.propagateDet()
	return m
}

// declKey produces a stable node key for a declaration. types.Func
// FullName strings are identical across type-check universes, so a
// cross-package call resolved through the importer unifies with the node
// built from the callee's own package. Multiple init functions share a
// name; their (never-called) nodes are disambiguated by position.
func declKey(fset *token.FileSet, pkg *Package, fn *ast.FuncDecl, obj *types.Func) string {
	if obj == nil {
		return pkg.ImportPath + "." + funcLabel(fn) + "@" + fset.Position(fn.Pos()).String()
	}
	if fn.Name.Name == "init" && fn.Recv == nil {
		return obj.FullName() + "@" + fset.Position(fn.Pos()).String()
	}
	return funcObjKey(obj)
}

// funcObjKey is the node key for a resolved callee object.
func funcObjKey(obj *types.Func) string { return obj.Origin().FullName() }

// pkgBase is the last path element of an import path, with the
// external-test suffix folded away.
func pkgBase(path string) string {
	base := path
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	return strings.TrimSuffix(base, "_test")
}

// edgeWalker adds edges for every call in one declaration's body.
type edgeWalker struct {
	g    *CallGraph
	node *FuncNode
	info *types.Info
}

// walk visits stmts/exprs under n, attributing calls to the walker's
// node with the given kind. Function literals are walked inline with the
// current kind, except literals spawned by `go`, whose calls become
// EdgeGo.
func (w *edgeWalker) walk(n ast.Node, kind EdgeKind) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			w.call(x.Call, EdgeGo)
			// Arguments are evaluated on the spawning goroutine…
			for _, arg := range x.Call.Args {
				w.walk(arg, kind)
			}
			// …but a spawned literal's body runs concurrently.
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body, EdgeGo)
			}
			return false
		case *ast.DeferStmt:
			w.call(x.Call, EdgeDefer)
			for _, arg := range x.Call.Args {
				w.walk(arg, kind)
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body, EdgeDefer)
			}
			return false
		case *ast.CallExpr:
			w.call(x, kind)
			return true
		}
		return true
	})
}

// call resolves one call site and adds an edge (or counts it dynamic).
func (w *edgeWalker) call(call *ast.CallExpr, kind EdgeKind) {
	fn, dynamic := resolveCallee(w.info, call)
	if fn == nil {
		if dynamic {
			w.g.Dynamic++
		}
		return
	}
	key := funcObjKey(fn)
	callee := w.g.Nodes[key]
	if callee == nil {
		callee = &FuncNode{Key: key, Label: externalLabel(fn), Func: fn}
		w.g.Nodes[key] = callee
	}
	e := &Edge{Caller: w.node, Callee: callee, Kind: kind, Pos: call.Pos()}
	w.node.Out = append(w.node.Out, e)
	callee.In = append(callee.In, e)
	w.g.Edges++
}

func externalLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := recvTypeName(fn); recv != "" {
		return pkgBase(fn.Pkg().Path()) + "." + recv + "." + fn.Name()
	}
	return pkgBase(fn.Pkg().Path()) + "." + fn.Name()
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		star = "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return "(" + star + named.Obj().Name() + ")"
}

// resolveCallee finds the static callee of a call expression, if any.
// dynamic is true when the call dispatches through an interface method,
// a func value, or a func-typed field — sites the graph cannot follow.
// Conversions and builtin calls return (nil, false): they are not calls
// into user code at all.
func resolveCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, dynamic bool) {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](…).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, isType := info.Types[idx.Index]; isType {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch o := info.Uses[fun].(type) {
		case *types.Func:
			return o, false
		case *types.Builtin, *types.TypeName, nil:
			return nil, false
		default: // *types.Var etc.: a func value
			return nil, true
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			switch s.Kind() {
			case types.MethodVal, types.MethodExpr:
				f, ok := s.Obj().(*types.Func)
				if !ok {
					return nil, true
				}
				if types.IsInterface(s.Recv()) {
					return nil, true // interface dispatch: callee set unknown
				}
				return f, false
			default: // FieldVal: calling a func-typed field
				return nil, true
			}
		}
		// Package-qualified: pkg.Func, pkg.Type(...) or pkg.funcVar(...).
		switch o := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return o, false
		case *types.TypeName, nil:
			return nil, false
		default:
			return nil, true
		}
	case *ast.FuncLit:
		return nil, false // immediately-invoked literal: body walked inline
	default:
		// Computed expression of function type (map lookup, call result…).
		return nil, true
	}
}

// propagateHot floods hot-path taint from every annotated root along
// EdgeCall/EdgeDefer edges, stopping at //dsps:coldpath functions and
// external nodes. //dsps:allocs functions propagate taint (their callees
// are still on the hot path); only allocfree skips their own body.
func (g *CallGraph) propagateHot() {
	var queue []*FuncNode
	for _, n := range sortedNodes(g) {
		if n.Hotpath && !n.Coldpath {
			n.HotTainted = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if e.Kind == EdgeGo {
				continue
			}
			c := e.Callee
			if c.External() || c.Coldpath || c.HotTainted {
				continue
			}
			c.HotTainted = true
			c.HotVia = e
			queue = append(queue, c)
		}
	}
}

// propagateDet floods determinism taint from every function declared in
// a deterministic package, along all edge kinds (a goroutine spawned by
// deterministic code must replay deterministically too). Taint only
// matters outside deterministic packages — inside one, the whole package
// is checked anyway.
func (g *CallGraph) propagateDet() {
	var queue []*FuncNode
	for _, n := range sortedNodes(g) {
		if n.Pkg != nil && n.Pkg.Deterministic {
			n.DetTainted = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			c := e.Callee
			if c.External() || c.DetTainted {
				continue
			}
			c.DetTainted = true
			c.DetVia = e
			queue = append(queue, c)
		}
	}
}

// sortedNodes returns the graph's nodes in stable key order, so taint
// witness chains and diagnostics do not depend on map iteration.
func sortedNodes(g *CallGraph) []*FuncNode {
	out := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats summarizes the graph for the report and baseline. Only nodes
// with loaded declarations count as graph nodes; external leaves are a
// property of the edges that reach them.
func (g *CallGraph) Stats() (nodes, edges, dynamic int) {
	for _, n := range g.Nodes {
		if !n.External() {
			nodes++
		}
	}
	return nodes, g.Edges, g.Dynamic
}

// DOT renders the subgraph reachable from every node whose key, label,
// or bare function name matches root, in Graphviz DOT form. Hot-path
// roots are drawn filled, hot-tainted nodes shaded, external nodes
// dashed; go edges are dashed and defer edges dotted.
func (g *CallGraph) DOT(root string) (string, error) {
	var starts []*FuncNode
	for _, n := range sortedNodes(g) {
		if n.External() {
			continue
		}
		if n.Key == root || n.Label == root || matchesBareName(n, root) {
			starts = append(starts, n)
		}
	}
	if len(starts) == 0 {
		return "", fmt.Errorf("no function matches %q (try the diagnostic label, e.g. dsps.(*spoutCollector).Emit, or a bare name)", root)
	}
	seen := map[*FuncNode]bool{}
	var order []*FuncNode
	var visit func(n *FuncNode)
	visit = func(n *FuncNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		order = append(order, n)
		if n.External() {
			return
		}
		for _, e := range n.Out {
			visit(e.Callee)
		}
	}
	for _, s := range starts {
		visit(s)
	}

	var b strings.Builder
	b.WriteString("digraph callgraph {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	id := map[*FuncNode]string{}
	for i, n := range order {
		id[n] = fmt.Sprintf("n%d", i)
		attrs := []string{fmt.Sprintf("label=%q", n.Label)}
		switch {
		case n.Hotpath:
			attrs = append(attrs, `style=filled`, `fillcolor=salmon`)
		case n.HotTainted:
			attrs = append(attrs, `style=filled`, `fillcolor=mistyrose`)
		case n.External():
			attrs = append(attrs, `style=dashed`)
		}
		fmt.Fprintf(&b, "  %s [%s];\n", id[n], strings.Join(attrs, ", "))
	}
	for _, n := range order {
		for _, e := range n.Out {
			if !seen[e.Callee] {
				continue
			}
			style := ""
			switch e.Kind {
			case EdgeGo:
				style = ` [style=dashed, label="go"]`
			case EdgeDefer:
				style = ` [style=dotted, label="defer"]`
			}
			fmt.Fprintf(&b, "  %s -> %s%s;\n", id[n], id[e.Callee], style)
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}

func matchesBareName(n *FuncNode, root string) bool {
	if n.Decl == nil {
		return false
	}
	return n.Decl.Name.Name == root || funcLabel(n.Decl) == root
}
