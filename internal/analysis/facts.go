package analysis

import (
	"go/types"
	"sort"
)

// Facts is the store through which an analyzer's Run passes hand
// per-package summaries to its Finish pass: latchorder exports one
// summary per function, and its Finish pass folds them into the
// whole-module lock-order graph. No Run pass reads facts, so the driver
// may visit packages in any order.
//
// Facts are namespaced by analyzer name and keyed by an analyzer-chosen
// string (latchorder uses "fn:" + ObjectKey), so two analyzers can attach
// unrelated facts to the same function.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	analyzer string
	object   string
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: map[factKey]any{}}
}

func (f *Facts) export(analyzer, object string, fact any) {
	f.m[factKey{analyzer, object}] = fact
}

// Keys returns every object key holding a fact for the analyzer, sorted,
// so Finish passes can iterate deterministically.
func (f *Facts) Keys(analyzer string) []string {
	var out []string
	for k := range f.m {
		if k.analyzer == analyzer {
			out = append(out, k.object)
		}
	}
	sort.Strings(out)
	return out
}

// Get returns the fact stored for (analyzer, object key), if any.
func (f *Facts) Get(analyzer, object string) (any, bool) {
	v, ok := f.m[factKey{analyzer, object}]
	return v, ok
}

// ObjectKey canonicalizes a function or method to a stable,
// loader-independent string: "pkgpath.Name" for package-level functions,
// "pkgpath.(Type).Name" for methods. Pointer receivers collapse onto the
// value type, and an interface method keys on the interface type, so a
// call site resolved through either form names the same node.
func ObjectKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return pkg + "." + obj.Name()
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + f.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		npkg := ""
		if named.Obj().Pkg() != nil {
			npkg = named.Obj().Pkg().Path()
		}
		return npkg + ".(" + named.Obj().Name() + ")." + f.Name()
	}
	// Receiver is an unnamed type (interface literal, struct literal):
	// fall back to the type's printed form.
	return pkg + ".(" + types.TypeString(t, nil) + ")." + f.Name()
}

// ExportFact records a fact under key in this analyzer's namespace. It
// is a no-op when the pass has no store.
func (p *Pass) ExportFact(key string, fact any) {
	if p.Facts == nil {
		return
	}
	p.Facts.export(p.analyzer.Name, key, fact)
}
