package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFree statically pins the engine's "0 allocs/op acked path" claim,
// which until v2 only `go test -benchmem` guarded at runtime: inside a
// //dsps:hotpath call tree (the annotated roots plus everything
// statically reachable from them), it flags every construct the compiler
// may turn into a heap allocation:
//
//   - make / new builtin calls
//   - append (the growth path allocates a new backing array)
//   - composite literals that are heap candidates: &T{…}, and slice or
//     map literals
//   - function literals (a closure capturing by reference allocates its
//     capture block) and `go` statements (a new goroutine plus its
//     closure)
//   - interface boxing at call sites: a concrete non-pointer-shaped
//     value passed to an interface parameter (or converted to an
//     interface type) escapes into a heap-allocated box
//
// Designed amortized allocation points (arena refills, free-list
// fallbacks) opt out per function with `//dsps:allocs <justification>`;
// the justification is carried into the report and the committed
// baseline, so the set of sanctioned allocation sites is reviewable.
// The analyzer is deliberately conservative-static: it cannot see escape
// analysis or steady-state capacity reservations, so a finding means
// "the compiler may allocate here", to be fixed, justified with
// //dsps:allocs, or suppressed with a //dspslint:ignore reason.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "potential heap allocation (make/append/new, composite literal, closure, go, interface boxing) in a //dsps:hotpath call tree",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			node := pass.Mod.Graph.NodeAt(fn)
			if node == nil || !node.HotTainted || node.AllocsReason != "" {
				continue
			}
			where := whereHot(node, funcLabel(fn))
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(n.Pos(), "go statement %s allocates a goroutine and its closure", where)
					return false // the spawned body is not on the hot path
				case *ast.FuncLit:
					pass.Reportf(n.Pos(), "closure literal %s allocates its capture block", where)
					return false
				case *ast.CompositeLit:
					if lit := compositeAllocKind(pass, n); lit != "" {
						pass.Reportf(n.Pos(), "%s literal %s allocates", lit, where)
						return false // inner literals are part of the same allocation
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
							pass.Reportf(n.Pos(), "&composite literal %s escapes to the heap", where)
							return false
						}
					}
				case *ast.CallExpr:
					// Allocations feeding a panic are moot: the guard
					// `panic(fmt.Sprintf(…))` executes zero times per op in
					// steady state, and the process is dying anyway.
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
						if b, isB := pass.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
							return false
						}
					}
					reportCallAllocs(pass, n, where)
				}
				return true
			})
		}
	}
}

// whereHot situates a diagnostic: directly annotated functions read
// naturally, tainted ones carry the witness chain to their root.
func whereHot(node *FuncNode, label string) string {
	if node.Hotpath {
		return "in hot-path function " + label + " (//dsps:hotpath)"
	}
	return "in " + label + " (reachable from hot path " + node.HotChain() + ")"
}

// compositeAllocKind classifies a composite literal as a heap candidate:
// slice and map literals always allocate backing storage; plain struct
// and array literals are stack values unless their address escapes
// (caught by the &-literal case).
func compositeAllocKind(pass *Pass, lit *ast.CompositeLit) string {
	t := pass.TypeOf(lit)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return ""
}

// reportCallAllocs flags allocating builtins and interface boxing at one
// call site.
func reportCallAllocs(pass *Pass, call *ast.CallExpr, where string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "make %s allocates", where)
			case "new":
				pass.Reportf(call.Pos(), "new %s allocates", where)
			case "append":
				pass.Reportf(call.Pos(), "append %s may grow its backing array", where)
			}
			return
		}
	}
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return
	}
	// Conversion to an interface type: any(v), error(v)…
	if isConversion(pass, call) {
		if types.IsInterface(t.Underlying()) && len(call.Args) == 1 {
			if boxes(pass.TypeOf(call.Args[0])) {
				pass.Reportf(call.Pos(), "conversion of %s to interface %s boxes on the heap",
					typeLabel(pass.TypeOf(call.Args[0])), where)
			}
		}
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // f(slice...) passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic parameter: instantiation decides, not this site
		}
		at := pass.TypeOf(arg)
		if boxes(at) {
			pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes on the heap %s",
				typeLabel(at), where)
		}
	}
}

// isConversion reports whether call is a type conversion rather than a
// function call.
func isConversion(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, ok := pass.Info.Uses[fun].(*types.TypeName)
		return ok
	case *ast.SelectorExpr:
		_, ok := pass.Info.Uses[fun.Sel].(*types.TypeName)
		return ok
	case *ast.InterfaceType, *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StarExpr:
		return true
	}
	return false
}

// boxes reports whether storing a value of type t in an interface
// allocates: pointer-shaped values (pointers, channels, maps, funcs,
// unsafe.Pointer) ride the interface word directly; interfaces and nil
// re-wrap without allocating; everything else is copied into a heap box.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UnsafePointer, types.UntypedNil:
			return false
		}
		if u.Info()&types.IsUntyped != 0 && u.Kind() == types.UntypedString {
			return true
		}
	case *types.TypeParam:
		return false // instantiation-dependent
	}
	return true
}

// typeLabel renders a type compactly for diagnostics.
func typeLabel(t types.Type) string {
	if t == nil {
		return "value"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
