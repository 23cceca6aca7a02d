// Package analysis is a stdlib-only static-analysis framework (go/parser,
// go/ast, go/types with the source importer — no x/tools) that mechanically
// enforces the engine's determinism, hot-path, and concurrency invariants.
// The conventions DESIGN.md documents — seeded randomness, the coarse atomic
// clock on the data plane, no blocking work under the acker's shard locks —
// are one careless PR away from silently regressing; the analyzers here turn
// them into build failures with file:line positions.
//
// Since v2 the framework is interprocedural: after type-checking, the
// driver builds a module-wide call graph (see callgraph.go) and
// propagates //dsps:hotpath and determinism taint transitively, so the
// hot-path and determinism analyzers apply to every function reachable
// from an annotated root, not just the annotated body. docs/DIRECTIVES.md
// is the one-page reference for the directive grammar.
//
// Directive grammar (all line comments):
//
//	//dsps:hotpath
//	    In a function's doc comment: marks the function as a data-plane
//	    hot-path root. The walltime and allocfree analyzers check the
//	    function and everything statically reachable from it.
//
//	//dsps:coldpath
//	    In a function's doc comment: cuts hot-path taint propagation.
//	    The function is a documented cold sub-path (setup, growth,
//	    drain) that a hot caller legitimately reaches; neither it nor
//	    its callees inherit hot-path taint through this edge.
//
//	//dsps:allocs <justification>
//	    In a function's doc comment: declares the function a designed
//	    amortized allocation point on the hot path (arena refill,
//	    free-list fallback). allocfree skips the function's own body but
//	    still checks and taints its callees; the justification is carried
//	    into the report and the committed baseline.
//
//	//dsps:deterministic
//	    In a file's package doc comment: marks the whole package as
//	    seed-deterministic, enabling the globalrand and maporder
//	    analyzers. The engine packages (internal/dsps, internal/chaos,
//	    internal/nn) are always treated as deterministic regardless, so
//	    deleting the directive cannot disable enforcement. Determinism
//	    taint also propagates: functions in other packages reachable
//	    from a deterministic package are checked too.
//
//	//dsps:owned-goroutines
//	    In a file's package doc comment: every `go` statement in the
//	    package (non-test files) must have a statically visible stop or
//	    wait path (goroleak). internal/dsps, internal/serve, and
//	    internal/obs are always treated as owned regardless.
//
//	//dspslint:ignore <analyzer>[,<analyzer>...] <justification>
//	    Suppresses findings of the listed analyzers (or `*` for all) on
//	    the directive's own line and the line below it. The justification
//	    text is carried into the JSON report and the committed baseline,
//	    so suppression creep is diffable across PRs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive spellings. They follow the Go directive-comment convention
// (`//tool:name`, no space after `//`) so gofmt preserves them and godoc
// hides them.
const (
	hotpathDirective       = "dsps:hotpath"
	coldpathDirective      = "dsps:coldpath"
	allocsDirective        = "dsps:allocs"
	deterministicDirective = "dsps:deterministic"
	ownedGoroDirective     = "dsps:owned-goroutines"
	ignoreDirective        = "dspslint:ignore"
)

// An Analyzer checks one invariant. Per-package analyzers implement Run
// and are invoked once per loaded package; module analyzers implement
// RunModule and are invoked exactly once with the whole call graph (so a
// cross-package cycle is reported once, not once per package).
type Analyzer struct {
	// Name is the analyzer's identifier, used in -enable/-disable flags,
	// ignore directives, and diagnostics.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run inspects the package held by pass and reports findings.
	Run func(pass *Pass)
	// RunModule inspects the whole module via pass.Mod. Exactly one of
	// Run/RunModule is set.
	RunModule func(pass *Pass)
}

// Analyzers returns the full registry in stable (alphabetical) order.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		AllocFree,
		AtomicMix,
		GlobalRand,
		GoroLeak,
		LockedSend,
		LockOrder,
		MapOrder,
		RingMisuse,
		SpliceSend,
		Unused,
		WallTime,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// A Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Position string         `json:"position"` // file:line:col, module-relative
	Message  string         `json:"message"`
	// Suppressed marks findings covered by a //dspslint:ignore directive;
	// they are reported in JSON output but do not fail the run.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"` // the directive's justification
}

// A Pass carries one analyzer's view of one type-checked package, plus
// the module-wide call graph shared by every pass. Module-scoped
// analyzers (RunModule) receive a Pass with only Analyzer, Fset, Mod,
// and the diagnostic sink populated.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Deterministic is true for packages under the engine's seeded-
	// determinism contract (built-in path list or //dsps:deterministic).
	Deterministic bool
	// Mod is the module-wide view: all loaded packages and the call
	// graph with hot-path and determinism taint already propagated.
	Mod *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant Info.TypeOf: analysis keeps going on packages
// with partial type information instead of panicking.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// pkgNamed reports whether e is an identifier naming an imported package
// with the given import path (e.g. "time", "math/rand").
func (p *Pass) pkgNamed(e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok || p.Info == nil {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// An ignoreEntry is one parsed //dspslint:ignore directive.
type ignoreEntry struct {
	file      string
	line      int
	analyzers map[string]bool // nil means all ("*")
	reason    string
	pos       token.Position
	used      bool
}

// covers reports whether the entry suppresses a finding by the named
// analyzer at the given line: the directive's own line or the next one,
// so both trailing comments and own-line comments above the code work.
func (e *ignoreEntry) covers(analyzer string, line int) bool {
	if line != e.line && line != e.line+1 {
		return false
	}
	return e.analyzers == nil || e.analyzers[analyzer]
}

// parseIgnores extracts every //dspslint:ignore directive from a file.
func parseIgnores(fset *token.FileSet, f *ast.File) []*ignoreEntry {
	var out []*ignoreEntry
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+ignoreDirective)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			entry := &ignoreEntry{file: pos.Filename, line: pos.Line, pos: pos}
			fields := strings.Fields(text)
			if len(fields) > 0 && fields[0] != "*" {
				entry.analyzers = map[string]bool{}
				for _, name := range strings.Split(fields[0], ",") {
					entry.analyzers[name] = true
				}
			}
			if len(fields) > 1 {
				entry.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, entry)
		}
	}
	return out
}

// hasDirective reports whether the comment group contains the given
// directive as its own line comment.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+directive)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// directiveArg returns the text following the given directive in cg
// ("", false when the directive is absent).
func directiveArg(cg *ast.CommentGroup, directive string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+directive)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// isHotpath reports whether fn's doc comment carries //dsps:hotpath.
func isHotpath(fn *ast.FuncDecl) bool { return hasDirective(fn.Doc, hotpathDirective) }

// fileDeterministic reports whether the file's package doc carries
// //dsps:deterministic.
func fileDeterministic(f *ast.File) bool { return hasDirective(f.Doc, deterministicDirective) }

// fileOwnedGoroutines reports whether the file's package doc carries
// //dsps:owned-goroutines.
func fileOwnedGoroutines(f *ast.File) bool { return hasDirective(f.Doc, ownedGoroDirective) }

// funcLabel names a function declaration for diagnostics, including the
// receiver type for methods.
func funcLabel(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	var b strings.Builder
	writeRecvType(&b, fn.Recv.List[0].Type)
	return b.String() + "." + fn.Name.Name
}

func writeRecvType(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteString("*")
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		b.WriteString("?")
	}
}
