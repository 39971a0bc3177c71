package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// snapfreezeFrozen lists, per package, the published immutable types and
// the only functions allowed to assign their fields: the constructors
// that build a value *before* it is published. Everything the epoch
// snapshot hands to lock-free readers is here — once a snapshot pointer
// is stored, every byte behind it must stay frozen, or readers race.
//
//   - snapshot is a literal, whole before installLocked publishes it, its
//     segment list included: a freeze or a merge makes a new slice;
//   - segment, an entry of that list, is built only by buildSegment (the
//     freeze's compile of the overlay, a tier merge, Open: one builder)
//     with tally, its counting helper, and succeeded — never written —
//     by withDead, the copy-on-write fold of tombstones, which assigns
//     only the fields of the copy it returns;
//   - compiledIndex is filled only by addDoc and appendTerm (the k-way
//     mergeIndex and the snapshot loader both build through them);
//   - overlay is built by the clone/fold family (stageDoc for a window
//     that is compiled instead of searched): cloneNextN copies the
//     containers a window inserts into or removes from, setTermPost
//     appends past the length any published overlay reads, delTermPost
//     copies the slice it shortens, and nothing mutates a published
//     value;
//   - feature.LSH is the vector index a segment holds. It is a mutable
//     index for its other callers, so the list is simply its writers —
//     Filled builds a segment's index in one pass —
//     and nothing else may reach into its tables.
var snapfreezeFrozen = map[string]map[string][]string{
	"internal/docstore": {
		"snapshot":      {},
		"segment":       {"buildSegment", "tally", "withDead"},
		"compiledIndex": {"addDoc", "appendTerm"},
		"overlay": {
			"cloneNextN", "dropID", "stageDoc", "putDoc", "maskBase",
			"setTermPost", "delTermPost",
		},
	},
	"internal/feature": {
		"LSH": {"NewLSH", "Filled", "Insert", "removeLocked"},
	},
}

// snapfreezeAnalyzer turns "immutable after publish" from a convention
// into a compile gate: any assignment (or ++/--) whose target path
// passes through a field of a frozen type, outside that type's listed
// constructors, is reported. The target *path* matters: in
// `sn.segs[i].byTime[j].key = 0` the spine crosses segment.byTime, so the
// write is caught even though the assigned field lives on an inner
// unfrozen type. Selector reads on the right-hand side (and map keys on the
// left) are untouched.
var snapfreezeAnalyzer = &Analyzer{
	Name: "snapfreeze",
	Doc:  "fields of published snapshot/segment/compiledIndex/overlay values may only be assigned in their freeze/compile constructors",
	RunModule: func(m *Module, report ReportFunc) {
		for pkgPath, frozenCfg := range snapfreezeFrozen {
			p := m.Lookup(pkgPath)
			if p == nil || p.Info == nil {
				continue
			}
			frozen := map[*types.TypeName]map[string]bool{}
			for typeName, ctors := range frozenCfg {
				tn, ok := p.Types.Scope().Lookup(typeName).(*types.TypeName)
				if !ok {
					continue
				}
				allowed := make(map[string]bool, len(ctors))
				for _, c := range ctors {
					allowed[c] = true
				}
				frozen[tn] = allowed
			}
			if len(frozen) == 0 {
				continue
			}
			for _, f := range p.ProductionFiles() {
				for _, d := range f.AST.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					checkFreeze(p, fd, frozen, report)
				}
			}
		}
	},
}

func checkFreeze(p *Package, fd *ast.FuncDecl, frozen map[*types.TypeName]map[string]bool, report ReportFunc) {
	fnName := fd.Name.Name
	checkTarget := func(lhs ast.Expr) {
		// The innermost frozen owner on the path governs: for
		// `sn.cx.terms = nil` that is compiledIndex.terms (the write lands
		// behind the cx pointer; snapshot.cx itself is only read), so the
		// walk stops at the first frozen selector it meets.
		for _, sel := range spineSelectors(lhs) {
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				continue
			}
			named := namedOf(s.Recv())
			if named == nil {
				continue
			}
			allowed, isFrozen := frozen[named.Obj()]
			if !isFrozen {
				continue
			}
			if !allowed[fnName] {
				report(sel.Pos(), "%s.%s assigned in %s, outside its freeze/compile constructors (%s); published values are immutable — build a new value instead",
					named.Obj().Name(), sel.Sel.Name, fnName, ctorList(allowed))
			}
			return
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				checkTarget(lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(stmt.X)
		}
		return true
	})
}

// spineSelectors returns the selector expressions on the assignment
// target's access path — the X-chain through index, star, and paren
// expressions. Index *keys* are excluded: they are reads.
func spineSelectors(e ast.Expr) []*ast.SelectorExpr {
	var out []*ast.SelectorExpr
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			out = append(out, x)
			e = x.X
		default:
			return out
		}
	}
}

func ctorList(allowed map[string]bool) string {
	names := make([]string, 0, len(allowed))
	for n := range allowed {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
