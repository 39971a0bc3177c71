package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// joinTrackedPackages must not leak goroutines: internal/transport serves
// real TCP connections (Close must drain handlers before returning),
// internal/core's fan-out workers feed plan-order slots that the caller
// joins on, and internal/docstore's committer and background compactor
// must be joined by Close before the WAL file handle is released. A `go`
// statement with no visible join in the same function is how these
// contracts rot.
// internal/shard holds the scatter router, which owns no goroutine: an ask
// stages its calls and waits for them on the goroutine that asked, hedges
// included, so Close has nothing to join — and a `go` statement appearing
// there would need a join before the router's connections close under it.
var joinTrackedPackages = []string{
	"internal/transport",
	"internal/core",
	"internal/docstore",
	"internal/shard",
}

// goroutineAnalyzer enforces contract (3), goroutine hygiene: every `go`
// statement in the packages above must be join-tracked within its
// enclosing function. Accepted evidence, any one of:
//
//   - the spawned closure registers itself with a sync.WaitGroup
//     (contains a Done or Wait call that actually resolves to
//     (*sync.WaitGroup).Done/Wait — a same-named method on some other
//     type is not a join);
//   - the spawned closure hands results over a channel (send or close)
//     and the enclosing function visibly consumes one (receive, select,
//     or range);
//   - the enclosing function itself calls (*sync.WaitGroup).Wait.
//
// Long-lived loops joined through struct state (e.g. a demux goroutine
// whose Close elsewhere blocks on a done channel) carry a
// //lint:allow goroutine annotation naming the join point.
var goroutineAnalyzer = &Analyzer{
	Name: "goroutine",
	Doc:  "go statements in transport, core, docstore and shard must be join-tracked in the same function",
	Run: func(p *Package, f *File, report ReportFunc) {
		if !underAny(p.Path, joinTrackedPackages) {
			return
		}
		// Walk every function body (declarations and literals) and check
		// the go statements that belong to it directly — not the ones
		// inside nested literals, which the nested walk owns.
		ast.Inspect(f.AST, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			for _, g := range directGoStmts(body) {
				if !joinTracked(p, body, g) {
					report(g.Pos(), "go statement is not join-tracked in this function (no WaitGroup Done/Wait, no channel join); leaked goroutines break clean shutdown — join it or annotate `//lint:allow goroutine <reason>` naming the join point")
				}
			}
			return true
		})
	},
}

// directGoStmts returns the go statements in body that are not nested
// inside a further function literal.
func directGoStmts(body *ast.BlockStmt) []*ast.GoStmt {
	var out []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch g := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			out = append(out, g)
			// The spawned closure is a FuncLit: the walk stops there and
			// the closure's own function walk owns any go inside it.
		}
		return true
	})
	return out
}

func joinTracked(p *Package, body *ast.BlockStmt, g *ast.GoStmt) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if containsWaitGroupCall(p, lit.Body, "Done", "Wait") {
			return true
		}
		if sendsOrCloses(lit.Body) && consumesChannel(body) {
			return true
		}
	}
	return containsWaitGroupCall(p, body, "Wait")
}

// containsWaitGroupCall reports whether node contains a call that
// resolves, via type information, to one of the named methods on
// *sync.WaitGroup. Test files carry no type info (p.Info covers
// production files only) and fall back to accepting a bare name match —
// the contracts gate production code, and the fallback only loosens the
// rule where types are unavailable.
func containsWaitGroupCall(p *Package, node ast.Node, names ...string) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		for _, want := range names {
			if sel.Sel.Name != want {
				continue
			}
			if p.Info != nil {
				if obj, known := p.Info.Uses[sel.Sel]; known {
					fn, isFn := obj.(*types.Func)
					if !isFn || !isWaitGroupMethod(fn) {
						continue
					}
				}
			}
			found = true
			return false
		}
		return !found
	})
	return found
}

// isWaitGroupMethod reports whether fn is a method on sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isPkgType(sig.Recv().Type(), "sync", "WaitGroup")
}

// sendsOrCloses reports whether the closure hands data back: a channel
// send or a close call.
func sendsOrCloses(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		switch c := n.(type) {
		case *ast.SendStmt:
			found = true
			return false
		case *ast.CallExpr:
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// consumesChannel reports whether the function visibly waits on channel
// traffic: a receive expression, a select, or a range loop.
func consumesChannel(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.SelectStmt, *ast.RangeStmt:
			found = true
			return false
		}
		return !found
	})
	return found
}
