package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotallocPackage scopes the zero-alloc contract to the docstore.
var hotallocPackage = "internal/docstore"

// hotallocRoots are the Store entry points whose steady state is
// benchmarked at 0 allocs/op (cache hit) and 1 alloc/op (cold): the text
// search path, local and — since the result cache keys on the router's
// statistics — global, which is the hit path of every scatter ask, entered
// by a shard server through SearchTextAssuming (whose check of the router's
// assumption, on a miss, compares figures without building them); and the
// hybrid search every market ask runs at each contracted source, and the
// vector search whose pool it runs: pools, blend and selection live in the
// scratch, the result slice is their one allocation. SearchVisual is no
// root: no caller serves it hot.
var hotallocRoots = map[string]bool{
	"SearchText":           true,
	"SearchTextGlobal":     true,
	"SearchTextAssuming":   true,
	"SearchTextExhaustive": true,
	"SearchHybrid":         true,
	"SearchVector":         true,
}

// hotallocPooled are the scratch types whose backing arrays are pooled:
// append may grow them freely, because growth is amortized into the pool
// and the steady state reuses the high-water capacity.
var hotallocPooled = map[string]bool{
	"searchScratch": true,
}

// hotPathScope parameterizes the reachability-based zero-alloc check
// shared by hotalloc (docstore search) and wirealloc (wire encode/decode):
// one package, a predicate picking the root functions whose call closure
// is hot, the pooled scratch types append may grow, and the analyzer
// identity used in messages and allow directives.
type hotPathScope struct {
	analyzer string          // directive name: hotalloc, wirealloc
	pkg      string          // module-relative package the contract governs
	pooled   map[string]bool // scratch type names append may grow freely
	isRoot   func(*FuncNode) bool
	contract string // message clause naming the protected steady state
}

// runHotPath applies one zero-alloc scope: resolve the pooled types,
// collect the roots, walk everything reachable from them inside the
// package, and flag allocating constructs.
func runHotPath(m *Module, sc hotPathScope, report ReportFunc) {
	p := m.Lookup(sc.pkg)
	if p == nil || p.Info == nil {
		return
	}
	pooled := map[*types.TypeName]bool{}
	for name := range sc.pooled {
		if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok {
			pooled[tn] = true
		}
	}
	m.Graph().WalkPackage(p, sc.isRoot, func(n, root *FuncNode) {
		checkHotFunc(sc, p, n, root, pooled, report)
	})
}

// hotallocAnalyzer pins the zero-alloc search win against regression:
// code reachable from the Store text-search entry points must not
// contain allocating constructs — make/new, slice or map literals,
// &composite{} (escaping pointer construction), string↔[]byte
// conversions, or append to anything that is not a parameter, the
// receiver, or the pooled scratch. The two compiler-optimized lookup
// shapes m[string(b)] and delete(m, string(b)) are exempt (the compiler
// elides those conversions). Value composite literals (cursor{...}) are
// fine: they live in their enclosing frame or array.
//
// Deliberate cold-path allocations (the one documented []Hit allocation
// per cold query, the cache-miss insert) carry a reasoned
// //lint:allow hotalloc directive, so the budget stays auditable.
// Closure creation and interface boxing are out of scope: both are
// usually stack-allocated when they do not escape, and flagging them
// would bury the signal.
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "code reachable from docstore text search must not allocate; pool scratch or annotate the documented cold paths",
	RunModule: func(m *Module, report ReportFunc) {
		runHotPath(m, hotPathScope{
			analyzer: "hotalloc",
			pkg:      hotallocPackage,
			pooled:   hotallocPooled,
			isRoot: func(n *FuncNode) bool {
				return n.RecvTypeName() == lockfreeReceiver && hotallocRoots[n.Obj.Name()]
			},
			contract: "the search steady state must stay allocation-free — use the pooled scratch",
		}, report)
	},
}

func checkHotFunc(sc hotPathScope, p *Package, n, root *FuncNode, pooled map[*types.TypeName]bool, report ReportFunc) {
	params := paramObjects(p, n.Decl)
	name, via := n.String(), root.String()
	flag := func(pos token.Pos, what string) {
		report(pos, "%s (reachable from %s) %s; %s or annotate `//lint:allow %s <reason>`",
			name, via, what, sc.contract, sc.analyzer)
	}
	walkParents(n.Decl.Body, func(node ast.Node, parents []ast.Node) {
		switch x := node.(type) {
		case *ast.CallExpr:
			switch builtinName(p, x) {
			case "make":
				flag(x.Pos(), "allocates with make")
			case "new":
				flag(x.Pos(), "allocates with new")
			case "append":
				if len(x.Args) > 0 && !appendTargetOK(p, x.Args[0], params, pooled) {
					flag(x.Pos(), "appends to a slice that is neither a parameter nor pooled scratch (growth allocates)")
				}
			default:
				if from, to, ok := stringConversion(p, x); ok && !elidedConversion(x, parents) {
					flag(x.Pos(), "converts "+from+" to "+to+" (allocates a copy)")
				}
			}
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[ast.Expr(x)]
			if !ok {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				flag(x.Pos(), "allocates a slice literal")
			case *types.Map:
				flag(x.Pos(), "allocates a map literal")
			default:
				if un, ok := parentAbove(parents, 0).(*ast.UnaryExpr); ok && un.Op == token.AND {
					flag(un.Pos(), "allocates with &composite{} (escapes to the heap)")
				}
			}
		}
	})
}

// paramObjects collects the objects append may legally target: the
// receiver, parameters, and named results of the declaration and of
// every function literal nested in it (a closure's own parameters are
// its caller's storage).
func paramObjects(p *Package, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if obj := p.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addList(decl.Recv)
	addList(decl.Type.Params)
	addList(decl.Type.Results)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addList(lit.Type.Params)
			addList(lit.Type.Results)
		}
		return true
	})
	return out
}

// appendTargetOK reports whether an append first argument is rooted at a
// parameter/receiver or at a variable of a pooled scratch type —
// sc.heap[:0], h.items, dst.
func appendTargetOK(p *Package, e ast.Expr, params map[types.Object]bool, pooled map[*types.TypeName]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if rootsAtPooled(p, x, params, pooled) {
				return true
			}
			e = x.X
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			if obj == nil {
				return false
			}
			if params[obj] {
				return true
			}
			if named := namedOf(obj.Type()); named != nil && pooled[named.Obj()] {
				return true
			}
			return false
		default:
			return false
		}
	}
}

// rootsAtPooled reports whether a selector reads a field of a pooled
// scratch value (sc.heap): the receiver of the selection is one of the
// pooled types.
func rootsAtPooled(p *Package, sel *ast.SelectorExpr, params map[types.Object]bool, pooled map[*types.TypeName]bool) bool {
	s := p.Info.Selections[sel]
	if s == nil {
		return false
	}
	named := namedOf(s.Recv())
	return named != nil && pooled[named.Obj()]
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(p *Package, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := p.Info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// stringConversion classifies a conversion between string and
// []byte/[]rune, the allocating direction pair the hot path bans.
func stringConversion(p *Package, call *ast.CallExpr) (from, to string, ok bool) {
	if len(call.Args) != 1 {
		return "", "", false
	}
	tv, found := p.Info.Types[call.Fun]
	if !found || !tv.IsType() {
		return "", "", false
	}
	src, found := p.Info.Types[call.Args[0]]
	if !found {
		return "", "", false
	}
	dst := tv.Type
	switch {
	case isString(src.Type) && isByteOrRuneSlice(dst):
		return "string", dst.String(), true
	case isByteOrRuneSlice(src.Type) && isString(dst):
		return src.Type.String(), "string", true
	}
	return "", "", false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	k := b.Kind()
	return k == types.Uint8 || k == types.Int32
}

// elidedConversion reports the two shapes the compiler compiles without
// allocating: using string(b) directly as a map *read* index, and as the
// key of a delete. A map-write key (m[string(b)] = v) still allocates —
// the key is retained by the map — so only reads are exempt.
func elidedConversion(call *ast.CallExpr, parents []ast.Node) bool {
	switch par := parentAbove(parents, 0).(type) {
	case *ast.IndexExpr:
		if par.Index != call {
			return false
		}
		if assign, ok := parentAbove(parents, 1).(*ast.AssignStmt); ok {
			for _, lhs := range assign.Lhs {
				if lhs == par {
					return false
				}
			}
		}
		return true
	case *ast.CallExpr:
		if builtinIdent(par) == "delete" {
			return len(par.Args) == 2 && par.Args[1] == call
		}
	}
	return false
}

// builtinIdent is the syntactic form of builtinName for contexts where
// the package Info is not at hand; delete cannot be shadowed by a
// production identifier in this codebase without the sweep noticing.
func builtinIdent(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
