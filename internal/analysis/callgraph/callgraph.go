// Package callgraph builds the approximate whole-module call graph the
// interprocedural check (latchorder) reasons over. It is a
// syntactic/type-based approximation, stdlib-only like the rest of the
// analysis framework:
//
//   - static calls (package functions, concrete methods) resolve through
//     go/types Uses/Selections to exactly one callee;
//   - interface-method calls resolve to the interface method node, and
//     ResolveInterfaces additionally links that node to every concrete
//     method of a module type whose method set satisfies the interface —
//     the classic class-hierarchy over-approximation;
//   - calls of plain function values (closures passed as arguments) are
//     not resolved here; latchorder compensates with its own
//     funclit-at-callsite approximation.
//
// Nodes are identified by analysis.ObjectKey strings, so edges survive
// the fact store round-trip.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"tdbms/internal/analysis"
)

// Edge is one call-graph edge, anchored at the call site that induced it.
type Edge struct {
	Caller string
	Callee string
	Pos    token.Pos
	// ViaInterface marks edges added by ResolveInterfaces: the call site
	// names an interface method and the callee is one possible concrete
	// implementation.
	ViaInterface bool
}

// Graph is the call graph of a set of packages.
type Graph struct {
	// edges maps caller key to its out-edges in insertion order.
	edges map[string][]Edge
	// ifaceMethods maps the key of every interface method that appears
	// as a callee to its *types.Func, for later resolution.
	ifaceMethods map[string]*types.Func
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		edges:        map[string][]Edge{},
		ifaceMethods: map[string]*types.Func{},
	}
}

// AddEdge records caller -> callee at pos.
func (g *Graph) AddEdge(caller string, callee *types.Func, pos token.Pos) {
	key := analysis.ObjectKey(callee)
	g.edges[caller] = append(g.edges[caller], Edge{Caller: caller, Callee: key, Pos: pos})
	if isInterfaceMethod(callee) {
		g.ifaceMethods[key] = callee
	}
}

// Edges returns the out-edges of a node.
func (g *Graph) Edges(caller string) []Edge { return g.edges[caller] }

// Nodes returns every node with at least one out-edge, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.edges))
	for k := range g.edges {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Callee resolves the unique static target of a call expression: a
// package function, a concrete method, or an interface method. It
// returns nil for calls of function values, type conversions, and
// builtins — the targets a go/types-level graph cannot name.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified identifier pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Func is one function body of a package: a declaration or a function
// literal, with the node key the graph files it under.
type Func struct {
	Key  string
	Decl *ast.FuncDecl // nil for a literal
	Lit  *ast.FuncLit  // nil for a declaration
	Body *ast.BlockStmt
	Pos  token.Pos
}

// Functions enumerates every function body of the files in source
// order: declared functions and methods under their ObjectKey, function
// literals under "<enclosing>$litN" (N counting literals within the
// enclosing body, outermost first).
func Functions(files []*ast.File, info *types.Info) []Func {
	var out []Func
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			key := analysis.ObjectKey(obj)
			out = append(out, Func{Key: key, Decl: fd, Body: fd.Body, Pos: fd.Pos()})
			out = append(out, literalsIn(fd.Body, key)...)
		}
	}
	return out
}

// literalsIn collects the function literals of body (at any depth) as
// their own Funcs keyed under parent.
func literalsIn(body *ast.BlockStmt, parent string) []Func {
	var out []Func
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		n++
		key := fmt.Sprintf("%s$lit%d", parent, n)
		out = append(out, Func{Key: key, Lit: lit, Body: lit.Body, Pos: lit.Pos()})
		out = append(out, literalsIn(lit.Body, key)...)
		return false // inner literals are keyed under this one
	})
	return out
}

// Build adds every statically resolvable call edge of the files to the
// graph: for each function body, one edge per call expression whose
// callee go/types can name. Calls inside a nested function literal are
// attributed to the literal's node, not the enclosing function.
func (g *Graph) Build(files []*ast.File, info *types.Info) {
	for _, fn := range Functions(files, info) {
		caller := fn.Key
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false // belongs to the literal's own node
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := Callee(info, call); callee != nil {
				g.AddEdge(caller, callee, call.Pos())
			}
			return true
		})
	}
}

// ResolveInterfaces links every interface-method callee recorded so far
// to the concrete methods implementing it among the named types of pkgs:
// for interface method I.M and named type T with Implements(T|*T, I),
// an edge I.M -> T.M is added at the type's position. Call after every
// package has been built into the graph.
func (g *Graph) ResolveInterfaces(pkgs []*analysis.Package) {
	if len(g.ifaceMethods) == 0 {
		return
	}
	// Deterministic iteration: sorted method keys, packages in given
	// order, scope names sorted by go/types (Scope.Names is sorted).
	keys := make([]string, 0, len(g.ifaceMethods))
	for k := range g.ifaceMethods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, impl := range Implementations(g.ifaceMethods[key], pkgs) {
			g.edges[key] = append(g.edges[key], Edge{
				Caller: key, Callee: impl.Key,
				Pos: impl.Pos, ViaInterface: true,
			})
		}
	}
}

// Impl is one concrete implementation of an interface method, anchored
// at the implementing type's declaration.
type Impl struct {
	Key string
	Pos token.Pos
}

// Implementations finds the concrete methods among pkgs' named types
// that implement interface method m — the class-hierarchy
// over-approximation shared by ResolveInterfaces and the latchorder
// Finish pass. Results follow package order, then go/types' sorted
// scope-name order, so they are deterministic.
func Implementations(m *types.Func, pkgs []*analysis.Package) []Impl {
	iface := interfaceOf(m)
	if iface == nil {
		return nil
	}
	var out []Impl
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			if impl := concreteMethod(ptr, m.Name()); impl != nil {
				out = append(out, Impl{Key: analysis.ObjectKey(impl), Pos: tn.Pos()})
			}
		}
	}
	return out
}

// interfaceOf returns the interface type an interface method belongs to.
func interfaceOf(m *types.Func) *types.Interface {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// concreteMethod finds the method named name in t's method set.
func concreteMethod(t types.Type, name string) *types.Func {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Name() == name {
			return f
		}
	}
	return nil
}

// isInterfaceMethod reports whether f is declared on an interface.
func isInterfaceMethod(f *types.Func) bool {
	return interfaceOf(f) != nil
}

// Reachable computes the set of nodes reachable from the given roots
// (roots included), following edges depth-first.
func (g *Graph) Reachable(roots ...string) map[string]bool {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(k string) {
		if seen[k] {
			return
		}
		seen[k] = true
		for _, e := range g.edges[k] {
			visit(e.Callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}
