package lint

import "go/ast"

// durabilityPackages carry the write paths whose errors must never be
// dropped: the docstore WAL (a swallowed append/flush/sync error means
// acknowledged-but-lost writes) and the transport framing layer (a
// swallowed write or deadline error strands the peer).
var durabilityPackages = []string{
	"internal/docstore",
	"internal/transport",
}

// watchedMethods are method names (selector calls only, matched
// case-sensitively) whose error result must be consumed. Lowercase
// entries are the docstore wal internals; they cannot collide with the
// builtins of the same spelling because builtins are plain ident calls.
var watchedMethods = map[string]bool{
	// docstore WAL / compaction
	"append": true, "flush": true, "sync": true, "close": true,
	"Compact": true,
	// transport write path
	"writeFrame": true, "WriteFrame": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// watchedFuncs are package-level function names (ident calls) with the
// same contract.
var watchedFuncs = map[string]bool{
	"truncateWAL": true,
	"appendWrite": true,
}

// checkederrAnalyzer enforces contract (4), error hygiene: on the
// durability and write paths above, calls to the watched functions must
// not discard their error — neither as a bare statement, nor deferred,
// nor assigned entirely to blanks.
var checkederrAnalyzer = &Analyzer{
	Name: "checkederr",
	Doc:  "no discarded errors on docstore WAL/compact and transport write paths",
	Run: func(p *Package, f *File, report ReportFunc) {
		if !underAny(p.Path, durabilityPackages) {
			return
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && allBlank(st.Lhs) {
					call, _ = st.Rhs[0].(*ast.CallExpr)
				}
			default:
				return true
			}
			if call == nil || !watchedCall(call) {
				return true
			}
			report(call.Pos(), "error result of %s is discarded on a durability/write path; check it, return it, or restructure so the failure is visible", callDisplay(call))
			return true
		})
	},
}

func watchedCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return watchedMethods[fun.Sel.Name]
	case *ast.Ident:
		return watchedFuncs[fun.Name]
	}
	return false
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !isIdentNamed(e, "_") {
			return false
		}
	}
	return len(exprs) > 0
}

// callDisplay renders a short name for the call as written at the site,
// e.g. "s.log.append" or "truncateWAL".
func callDisplay(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if base := exprDisplay(fun.X); base != "" {
			return base + "." + fun.Sel.Name
		}
		return "(...)." + fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}

// exprDisplay renders plain ident/selector chains ("" for anything else).
func exprDisplay(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprDisplay(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	}
	return ""
}
