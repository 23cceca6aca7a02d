package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RingMisuse enforces the SPSC ring ownership discipline from DESIGN.md
// "Data plane": a ring.SPSC has exactly one producer goroutine and one
// consumer goroutine, and the compiler cannot see which is which — the
// engine records it with directives. Functions that push into (or close)
// a ring must carry //dsps:ringproducer in their doc comment; functions
// that pop from one must carry //dsps:ringconsumer. A push from an
// unannotated function is exactly how a second producer slips in: the
// Lamport ring's unsynchronized head/tail stores then corrupt slots
// silently instead of failing loudly.
//
// Side classification: Push, PushN, Close and Reclaim are producer-side
// (Close is a producer hand-off: the consumer drains to empty and prunes;
// Reclaim takes back what the consumer released), Pop, PopN, Peek and
// Advance are consumer-side, and the read-only queries (Len, Empty,
// Closed) are free — both sides use them to decide when to park. A
// directive covers the whole declaration, function literals included;
// handing a ring to a literal that runs on another goroutine is the
// reviewer's to catch, not this analyzer's. The ring package itself (and
// its tests) is exempt: it is the implementation and legitimately
// exercises both sides.
var RingMisuse = &Analyzer{
	Name: "ringmisuse",
	Doc:  "SPSC ring push/close outside //dsps:ringproducer, or pop outside //dsps:ringconsumer",
	Run:  runRingMisuse,
}

const (
	ringProducerDirective = "dsps:ringproducer"
	ringConsumerDirective = "dsps:ringconsumer"
)

func runRingMisuse(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			producer := hasDirective(fn.Doc, ringProducerDirective)
			consumer := hasDirective(fn.Doc, ringConsumerDirective)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, defPkg := spscMethod(pass, call)
				if name == "" || defPkg == strings.TrimSuffix(pass.Pkg.Path(), "_test") {
					return true
				}
				switch name {
				case "Push", "PushN", "Close", "Reclaim":
					if !producer {
						pass.Reportf(call.Pos(),
							"SPSC.%s in %s, which is not marked //dsps:ringproducer; a second producer corrupts the single-writer ring",
							name, funcLabel(fn))
					}
				case "Pop", "PopN", "Peek", "Advance":
					if !consumer {
						pass.Reportf(call.Pos(),
							"SPSC.%s in %s, which is not marked //dsps:ringconsumer; a second consumer corrupts the single-reader ring",
							name, funcLabel(fn))
					}
				}
				return true
			})
		}
	}
}

// spscMethod matches a call to a method on ring.SPSC (any instantiation,
// value or pointer receiver), returning the method name and the defining
// package's import path — callers exempt the defining package itself.
func spscMethod(pass *Pass, call *ast.CallExpr) (name, defPkg string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || pass.Info == nil {
		return "", ""
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "SPSC" {
		return "", ""
	}
	return fn.Name(), fn.Pkg().Path()
}
