package lint

import "go/ast"

// lockfreePackage is the only package the lock-free contract governs.
var lockfreePackage = "internal/docstore"

// lockfreeReceiver is the type whose read path must stay lock-free.
var lockfreeReceiver = "Store"

// lockfreeReadMethods are the Store methods (beyond the Search* prefix)
// that run against the published snapshot and must therefore never take
// the writer mutex. Close and Compact are writers; Put/Delete obviously
// so.
var lockfreeReadMethods = map[string]bool{
	"Get": true, "Len": true, "Epoch": true, "Stats": true,
	"Newest": true, "TopicCount": true,
	"RecentSince": true, "Freshest": true, "All": true,
	"TermStats": true,
}

// lockfreeAnalyzer enforces the epoch-snapshot contract: every read
// method on docstore.Store serves from the atomically published snapshot
// and must not reference the receiver's mutex (s.mu) — a read that locks
// reintroduces the reader/writer convoy the snapshot design removes.
// The mutex is matched as the Store.mu field *object*, so locks on other
// objects (the query cache's internal mutex, a local sync.Mutex) are
// fine; and the check follows the call graph, so a read method can no
// longer hide the lock inside a helper function.
var lockfreeAnalyzer = &Analyzer{
	Name: "lockfree",
	Doc:  "docstore.Store read methods (Search*, Get, Stats, ...) must not touch the store mutex",
	RunModule: func(m *Module, report ReportFunc) {
		p := m.Lookup(lockfreePackage)
		if p == nil || p.Info == nil {
			return
		}
		muField := lookupField(p, lockfreeReceiver, "mu")
		if muField == nil {
			return
		}
		isRead := func(n *FuncNode) bool {
			return n.RecvTypeName() == lockfreeReceiver && lockfreeReadMethod(n.Obj.Name())
		}
		m.Graph().WalkPackage(p, isRead, func(n, root *FuncNode) {
			name, via := n.String(), root.String()
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				sel, ok := node.(*ast.SelectorExpr)
				if !ok || fieldObjOf(p, sel) != muField {
					return true
				}
				if n == root {
					report(sel.Pos(), "read method %s references %s.mu; reads must run lock-free against the snapshot",
						name, lockfreeReceiver)
				} else {
					report(sel.Pos(), "%s (reachable from read method %s) references %s.mu; reads must run lock-free against the snapshot",
						name, via, lockfreeReceiver)
				}
				return true
			})
		})
	},
}

func lockfreeReadMethod(name string) bool {
	if len(name) >= len("Search") && name[:len("Search")] == "Search" {
		return true
	}
	return lockfreeReadMethods[name]
}
