package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// TestFactsRoundTrip: what one package's pass exports, the Finish pass
// reads unchanged, namespaced per analyzer.
func TestFactsRoundTrip(t *testing.T) {
	f := NewFacts()
	f.export("latchorder", "pkg.Fn", []bool{true, false})
	f.export("other", "pkg.Fn", "unrelated")

	v, ok := f.Get("latchorder", "pkg.Fn")
	if !ok {
		t.Fatal("fact lost")
	}
	tainted, ok := v.([]bool)
	if !ok || len(tainted) != 2 || !tainted[0] || tainted[1] {
		t.Fatalf("fact mutated in the store: %#v", v)
	}
	if v, _ := f.Get("other", "pkg.Fn"); v != "unrelated" {
		t.Fatalf("analyzer namespaces collided: %#v", v)
	}
	if _, ok := f.Get("latchorder", "pkg.Other"); ok {
		t.Fatal("lookup of an absent key succeeded")
	}
}

// TestFactsKeysSorted: Finish passes iterate Keys for deterministic
// output, so the listing must be sorted and namespace-filtered.
func TestFactsKeysSorted(t *testing.T) {
	f := NewFacts()
	f.export("a", "z", 1)
	f.export("a", "m", 2)
	f.export("a", "b", 3)
	f.export("other", "a", 4)
	keys := f.Keys("a")
	if len(keys) != 3 || keys[0] != "b" || keys[1] != "m" || keys[2] != "z" {
		t.Fatalf("Keys = %v, want [b m z]", keys)
	}
}

// TestObjectKeyShapes: the canonical key must collapse pointer and value
// receivers onto one spelling, so facts exported against (*T).M are
// found from a T.M call site and vice versa.
func TestObjectKeyShapes(t *testing.T) {
	pkg := types.NewPackage("example.com/p", "p")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	if got := ObjectKey(types.NewFunc(token.NoPos, pkg, "F", sig)); got != "example.com/p.F" {
		t.Errorf("plain func key = %q", got)
	}

	named := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "T", nil), types.NewStruct(nil, nil), nil)
	valRecv := types.NewVar(token.NoPos, pkg, "t", named)
	ptrRecv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
	valKey := ObjectKey(types.NewFunc(token.NoPos, pkg, "M",
		types.NewSignatureType(valRecv, nil, nil, nil, nil, false)))
	ptrKey := ObjectKey(types.NewFunc(token.NoPos, pkg, "M",
		types.NewSignatureType(ptrRecv, nil, nil, nil, nil, false)))
	if valKey != ptrKey {
		t.Errorf("receiver keys differ: %q vs %q", valKey, ptrKey)
	}
	if valKey != "example.com/p.(T).M" {
		t.Errorf("method key = %q, want example.com/p.(T).M", valKey)
	}
	if ObjectKey(nil) != "" {
		t.Error("nil object should key to the empty string")
	}
}

// TestPassFactNilStore: analyzers run fine without a store — exports
// are no-ops, and a store attached later holds nothing from before.
func TestPassFactNilStore(t *testing.T) {
	p := &Pass{analyzer: &Analyzer{Name: "x"}}
	p.ExportFact("k", 1)
	p.Facts = NewFacts()
	if _, ok := p.Facts.Get("x", "k"); ok {
		t.Fatal("an export without a store reached a store")
	}
	p.ExportFact("k", 1)
	if v, ok := p.Facts.Get("x", "k"); !ok || v != 1 {
		t.Fatalf("export lost: %v %v", v, ok)
	}
}
