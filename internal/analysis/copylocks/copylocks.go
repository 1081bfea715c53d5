// Package copylocks extends go vet's copylocks rule with the repo's
// counter-bearing types. Copying a sync primitive by value forks its
// internal state; copying buffer.Buffered or a storage backend by value
// forks the I/O counters and frame table the benchmark depends on, so
// both are treated as no-copy types:
//
//   - any type whose pointer method set has Lock/Unlock (sync.Mutex,
//     sync.RWMutex, sync.Once, sync.WaitGroup via noCopy, ...);
//   - any struct or array containing such a type;
//   - buffer.Buffered, storage.Mem, and storage.Disk.
//
// Flagged sites: by-value parameters and receivers, by-value call
// arguments, assignments from an existing value, returns, and range
// destinations. Taking a pointer is always fine.
//
// PageCopy applies the same site rules to page.Page and anything that
// embeds one. A page is a kilobyte: the buffer manager's read path once
// moved every page three times, one of them through a by-value argument
// (`adopt(f.pg, id)`), and that was a seventh of a keyed lookup's CPU. The
// suite binds it to every package but the three that own page memory —
// internal/page, internal/storage, internal/buffer — where copying a page
// is the job.
package copylocks

import (
	"go/ast"
	"go/token"
	"go/types"

	"tdbms/internal/analysis"
)

// noCopyNamed lists the repo's counter-bearing types that must only be
// handled by pointer, keyed by package path then type name.
var noCopyNamed = map[string]map[string]bool{
	"tdbms/internal/buffer":  {"Buffered": true},
	"tdbms/internal/storage": {"Mem": true, "Disk": true},
}

// pageNamed is PageCopy's no-copy set.
var pageNamed = map[string]map[string]bool{"tdbms/internal/page": {"Page": true}}

// Analyzer is the copylocks-plus check.
var Analyzer = &analysis.Analyzer{
	Name: "copylocks",
	Doc:  "no by-value copies of sync primitives or counter-bearing storage/buffer types",
	Run: func(pass *analysis.Pass) {
		run(pass, &checker{named: noCopyNamed, locks: true,
			why: "use a pointer (copying forks counters/lock state)"})
	},
}

// PageCopy flags by-value copies of page.Page.
var PageCopy = &analysis.Analyzer{
	Name: "pagecopy",
	Doc:  "no by-value copies of page.Page outside the packages that own page memory",
	Run: func(pass *analysis.Pass) {
		run(pass, &checker{named: pageNamed,
			why: "use a pointer (a page is 1 KiB; the read path is copy-free)"})
	},
}

// checker applies the site rules for one set of no-copy types: the named
// ones and, with locks set, vet's lock types.
type checker struct {
	pass  *analysis.Pass
	named map[string]map[string]bool
	locks bool
	why   string
	memo  map[types.Type]bool
}

func run(pass *analysis.Pass, c *checker) {
	c.pass, c.memo = pass, map[types.Type]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, c.inspect)
	}
}

// noCopy reports whether t must not be copied by value.
func (c *checker) noCopy(t types.Type) bool {
	if v, ok := c.memo[t]; ok {
		return v
	}
	c.memo[t] = false // cycle guard; overwritten below
	v := c.noCopyUncached(t)
	c.memo[t] = v
	return v
}

func (c *checker) noCopyUncached(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && c.named[obj.Pkg().Path()][obj.Name()] {
			return true
		}
		if c.locks && hasPointerLock(t) {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if c.noCopy(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.noCopy(u.Elem())
	}
	return false
}

// hasPointerLock reports whether *t has Lock and Unlock methods while t
// itself does not — vet's definition of a lock type.
func hasPointerLock(t types.Type) bool {
	return hasMethods(types.NewPointer(t), "Lock", "Unlock") && !hasMethods(t, "Lock", "Unlock")
}

func hasMethods(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(t)
	for _, name := range names {
		found := false
		for i := 0; i < ms.Len(); i++ {
			f := ms.At(i).Obj()
			sig, ok := f.Type().(*types.Signature)
			if ok && f.Name() == name && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// copiesValue reports whether evaluating expr copies an existing no-copy
// value (as opposed to constructing a fresh one with a composite literal
// or receiving one from a call, which vet also permits as "first use").
func (c *checker) copiesValue(expr ast.Expr) (types.Type, bool) {
	e := ast.Unparen(expr)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return nil, false
	}
	tv, ok := c.pass.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsType() { // new(T) names a type, copies nothing
		return nil, false
	}
	if !c.noCopy(tv.Type) {
		return nil, false
	}
	return tv.Type, true
}

func (c *checker) inspect(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if t, bad := c.copiesValue(rhs); bad {
				c.report(rhs.Pos(), "assignment", t)
			}
		}
	case *ast.CallExpr:
		if tv, ok := c.pass.Info.Types[n.Fun]; ok && tv.IsType() {
			return true // conversion, checked via its operand elsewhere
		}
		for _, arg := range n.Args {
			if t, bad := c.copiesValue(arg); bad {
				c.report(arg.Pos(), "call argument", t)
			}
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if t, bad := c.copiesValue(res); bad {
				c.report(res.Pos(), "return", t)
			}
		}
	case *ast.RangeStmt:
		for _, dst := range []ast.Expr{n.Key, n.Value} {
			if dst == nil {
				continue
			}
			if t := c.typeOf(dst); t != nil && c.noCopy(t) {
				c.report(dst.Pos(), "range destination", t)
			}
		}
	case *ast.FuncDecl:
		c.checkFuncType(n.Type, n.Recv)
	case *ast.FuncLit:
		c.checkFuncType(n.Type, nil)
	}
	return true
}

func (c *checker) checkFuncType(ft *ast.FuncType, recv *ast.FieldList) {
	lists := []*ast.FieldList{ft.Params, recv}
	for _, list := range lists {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			tv, ok := c.pass.Info.Types[field.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if c.noCopy(tv.Type) {
				c.report(field.Type.Pos(), "by-value parameter or receiver", tv.Type)
			}
		}
	}
}

// typeOf resolves the type of expr, looking through Defs/Uses for bare
// identifiers (range destinations introduced by := are definitions and do
// not appear in Info.Types).
func (c *checker) typeOf(expr ast.Expr) types.Type {
	if tv, ok := c.pass.Info.Types[expr]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj, ok := c.pass.Info.Defs[id]; ok && obj != nil {
			return obj.Type()
		}
		if obj, ok := c.pass.Info.Uses[id]; ok && obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func (c *checker) report(pos token.Pos, what string, t types.Type) {
	c.pass.Report(pos, "%s copies %s by value; %s", what, types.TypeString(t, nil), c.why)
}
