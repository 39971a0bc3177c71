package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncNode is one production function or method in the module's call
// graph, keyed by its *types.Func (generic origin, so instantiations
// collapse onto their declaration).
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *File

	// Callees are the resolved outgoing edges, deduplicated, in first-use
	// order within the body.
	Callees []*FuncNode
}

// Name returns the bare function or method name.
func (n *FuncNode) Name() string { return n.Obj.Name() }

// RecvTypeName returns the receiver's named type ("" for plain
// functions), pointerness stripped: both (s *Store) and (s Store)
// report "Store".
func (n *FuncNode) RecvTypeName() string {
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return ""
	}
	return named.Obj().Name()
}

// String renders pkg.(Recv.)Name for diagnostics.
func (n *FuncNode) String() string {
	if r := n.RecvTypeName(); r != "" {
		return r + "." + n.Obj.Name()
	}
	return n.Obj.Name()
}

// CallGraph is the whole-module graph built once per Run and shared by
// every reachability-based analyzer. Edges over-approximate: any
// reference to a function — direct call, method value, function value
// stored in a struct — counts, so passing a callback somewhere is treated
// as a potential call. Calls through interface values expand via class
// hierarchy analysis: an edge is added to every module type that
// implements the interface and declares the method. The result is sound
// for "nothing reachable from X may do Y" contracts (no false negatives
// from dynamic dispatch), at the cost of some over-reach that the
// analyzers scope away by package.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
}

// NodeOf returns the graph node for a *types.Func, or nil (stdlib
// functions, interface methods, test helpers).
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Node looks a function up by package path, receiver type name ("" for
// plain functions), and name. Nil when absent.
func (g *CallGraph) Node(pkgPath, recv, name string) *FuncNode {
	for _, n := range g.nodes {
		if n.Pkg.Path == pkgPath && n.RecvTypeName() == recv && n.Obj.Name() == name {
			return n
		}
	}
	return nil
}

// PkgFuncs returns the nodes of one package, sorted by source position
// for deterministic traversal order.
func (g *CallGraph) PkgFuncs(pkgPath string) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.nodes {
		if n.Pkg.Path == pkgPath {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// WalkPackage is the walk every "nothing reachable from X may do Y"
// contract scoped to one package shares: the functions of p that isRoot
// accepts are the roots, reachability is followed inside p only, and visit
// sees each reached function that has a body, in source order, with the
// root that first reached it.
func (g *CallGraph) WalkPackage(p *Package, isRoot func(*FuncNode) bool, visit func(n, root *FuncNode)) {
	funcs := g.PkgFuncs(p.Path)
	var roots []*FuncNode
	for _, n := range funcs {
		if isRoot(n) {
			roots = append(roots, n)
		}
	}
	reached := g.ReachableFrom(roots, func(n *FuncNode) bool { return n.Pkg == p })
	for _, n := range funcs {
		if root, ok := reached[n]; ok && n.Decl.Body != nil {
			visit(n, root)
		}
	}
}

// ReachableFrom walks the graph from the roots, restricted to nodes the
// within predicate accepts (nil = everything), and returns for each
// reached node the root that first reached it — provenance for
// diagnostics ("reachable from Store.SearchText"). Roots map to
// themselves. Traversal is depth-first in deterministic (position) edge
// order.
func (g *CallGraph) ReachableFrom(roots []*FuncNode, within func(*FuncNode) bool) map[*FuncNode]*FuncNode {
	reached := make(map[*FuncNode]*FuncNode)
	var visit func(n, root *FuncNode)
	visit = func(n, root *FuncNode) {
		if _, ok := reached[n]; ok {
			return
		}
		if within != nil && !within(n) {
			return
		}
		reached[n] = root
		for _, c := range n.Callees {
			visit(c, root)
		}
	}
	for _, r := range roots {
		visit(r, r)
	}
	return reached
}

// buildGraph constructs the call graph over every production FuncDecl in
// the module. See CallGraph for the edge semantics.
func buildGraph(m *Module) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*FuncNode)}

	// Nodes: every production function/method declaration with a type
	// object. (Bodiless decls — assembly stubs — still get nodes; they
	// simply have no edges.)
	for _, p := range m.Pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.ProductionFiles() {
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn.Origin()] = &FuncNode{Obj: fn, Decl: fd, Pkg: p, File: f}
			}
		}
	}

	// Concrete named types of the module, for CHA expansion of interface
	// method calls.
	var concrete []types.Type
	for _, p := range m.Pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if types.IsInterface(tn.Type()) {
				continue
			}
			concrete = append(concrete, tn.Type())
		}
	}

	// Edges: every ident whose use resolves to a *types.Func. That covers
	// direct calls, method expressions, method values, and function
	// values without separately classifying them.
	for _, n := range g.nodes {
		if n.Decl.Body == nil {
			continue
		}
		info := n.Pkg.Info
		seen := make(map[*FuncNode]bool)
		addEdge := func(target *FuncNode) {
			if target != nil && !seen[target] {
				seen[target] = true
				n.Callees = append(n.Callees, target)
			}
		}
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				// Interface method: fan out to every module implementation.
				iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
				if !ok {
					return true
				}
				for _, impl := range implementations(concrete, iface) {
					obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(impl), true, fn.Pkg(), fn.Name())
					if target, ok := obj.(*types.Func); ok {
						addEdge(g.NodeOf(target))
					}
				}
				return true
			}
			addEdge(g.NodeOf(fn))
			return true
		})
	}
	return g
}

// implementations returns the concrete module types satisfying iface
// (directly or via pointer receiver).
func implementations(concrete []types.Type, iface *types.Interface) []types.Type {
	if iface.Empty() {
		return nil // any-typed calls can't happen; don't fan out to the world
	}
	var out []types.Type
	for _, t := range concrete {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			out = append(out, t)
		}
	}
	return out
}
