package lint

import (
	"go/ast"
	"go/types"
)

// postingsAnalyzer enforces the compiled-read-path contract introduced
// with block-max search: code reachable from a Search* entry point in
// internal/docstore must never range over the one map-based postings
// structure left, `termPost` on the overlay. Map iteration order is
// nondeterministic — ranging over postings while scoring is exactly the
// bug class that made results depend on accumulation order — and a
// per-query walk of a whole postings map defeats the block cursors the
// query path compiles to. Writers build that map and may iterate it
// freely; queries must go through the compiled cursors or one term's
// overlay posting slice.
//
// Reachability comes from the module call graph (graph.go): methods are
// resolved through real type information, so the pooled scratch's
// sync.Pool.Put no longer collides with Store.Put the way the old
// name-based graph forced it to — the hard-coded Put/Delete/Compact/Close
// barrier list is gone. The forbidden map is matched by field object
// (overlay.termPost), not by name, so a local variable that happens to be
// called "termPost" is fine.
var postingsAnalyzer = &Analyzer{
	Name: "postings",
	Doc:  "code reachable from docstore Search* must not range over map postings (termPost); use the compiled block cursors",
	RunModule: func(m *Module, report ReportFunc) {
		p := m.Lookup(lockfreePackage)
		if p == nil || p.Info == nil {
			return
		}
		forbidden := map[*types.Var]string{}
		if f := lookupField(p, "overlay", "termPost"); f != nil {
			forbidden[f] = "termPost"
		}
		if len(forbidden) == 0 {
			return
		}
		m.Graph().WalkPackage(p, searchRoot, func(n, root *FuncNode) {
			name, via := n.String(), root.String()
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				rng, ok := node.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if target := postingsField(p, rng.X, forbidden); target != "" {
					report(rng.Pos(), "%s (reachable from %s) ranges over %s; the query path must use the compiled block cursors, not map iteration",
						name, via, target)
				}
				return true
			})
		})
	},
}

// postingsField returns the forbidden map's name when the ranged
// expression selects (or indexes into) one of the forbidden field
// objects, "" otherwise. Calls are not unwrapped: an accessor returning a
// sorted slice is the sanctioned path.
func postingsField(p *Package, e ast.Expr, forbidden map[*types.Var]string) string {
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = idx.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return forbidden[fieldObjOf(p, sel)]
}
