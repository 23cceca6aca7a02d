package analysis

import (
	"go/ast"
	"strings"
)

// SpliceSend enforces the elastic runtime's splice discipline: a push
// into an SPSC ring (Push on a ring.SPSC, the data plane's
// only producer→bolt hand-off) must happen while the topology's splice
// lock (a sync.RWMutex field named spliceMu) is held. ScaleDown retires an
// executor by marking it dead under the splice write lock and then
// reclaiming its input rings; a producer that pushes a batch without at
// least the read lock can race that sequence and land tuples in a
// reclaimed ring, silently breaking conservation.
//
// Rings are matched by type (any instantiation of ring.SPSC, as in
// ringmisuse); the lock by its canonical name. The check only fires in
// packages that declare a spliceMu, so ring users without a splice
// protocol are left alone. Unlike lockedsend, `defer spliceMu.Unlock()`
// keeps the lock held for the rest of the function — here the question is
// "is the lock held at the push", not "does the critical section stay
// tight".
var SpliceSend = &Analyzer{
	Name: "splicesend",
	Doc:  "push into an SPSC ring without holding the splice lock (spliceMu)",
	Run:  runSpliceSend,
}

func runSpliceSend(pass *Pass) {
	if !declaresSpliceMu(pass.Files) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scanSpliceBlock(pass, fn.Body.List, map[string]bool{})
		}
	}
}

// declaresSpliceMu reports whether any file declares an identifier named
// spliceMu (struct field or variable) — the gate that scopes the analyzer
// to the engine package and its corpus.
func declaresSpliceMu(files []*ast.File) bool {
	found := false
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.Field:
				for _, name := range x.Names {
					if name.Name == "spliceMu" {
						found = true
					}
				}
			case *ast.ValueSpec:
				for _, name := range x.Names {
					if name.Name == "spliceMu" {
						found = true
					}
				}
			}
			return true
		})
	}
	return found
}

// scanSpliceBlock walks one statement list in order, maintaining the set of
// locks held, and flags ring pushes where no held lock is a spliceMu. Nested
// control-flow blocks inherit a copy of the held set; function literals are
// skipped (they run later, under whatever locks their caller holds).
func scanSpliceBlock(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		if recv, kind, ok := lockCall(pass, stmt); ok {
			switch kind {
			case "Lock", "RLock":
				held[recv] = true
			case "Unlock", "RUnlock":
				delete(held, recv)
			}
			continue
		}
		// `defer mu.Unlock()` releases at function exit: for the purposes
		// of "is the lock held at this push", it stays held.
		reportUnspliced(pass, stmt, held)
		for _, body := range nestedBlocks(stmt) {
			scanSpliceBlock(pass, body, copyHeld(held))
		}
		// Select comm clauses are scanned statement-by-statement (the comm
		// op first, then the body) so Lock/Unlock calls inside a case keep
		// tracking.
		if sel, ok := stmt.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				var list []ast.Stmt
				if cc.Comm != nil {
					list = append(list, cc.Comm)
				}
				list = append(list, cc.Body...)
				scanSpliceBlock(pass, list, copyHeld(held))
			}
		}
	}
}

// spliceHeld reports whether any held lock key names a spliceMu.
func spliceHeld(held map[string]bool) bool {
	for k := range held {
		if k == "spliceMu" || strings.HasSuffix(k, ".spliceMu") {
			return true
		}
	}
	return false
}

// reportUnspliced flags ring pushes in stmt's own expressions (nested
// block statements are visited by scanSpliceBlock's recursion, and
// function literals execute outside this critical section).
func reportUnspliced(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	if spliceHeld(held) {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			return false
		case *ast.SelectStmt:
			return false // comm clauses are scanned by scanSpliceBlock
		case *ast.CallExpr:
			if name, _ := spscMethod(pass, n); name == "Push" {
				ring := n.Fun.(*ast.SelectorExpr).X
				pass.Reportf(n.Pos(), "%s.%s without holding the splice lock; ScaleDown may be reclaiming the ring", exprKey(ring), name)
			}
		}
		return true
	})
}
