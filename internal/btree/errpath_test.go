package btree

import (
	"errors"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/faultfs"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// TestIteratorReadErrors injects a fault into the first page read and
// requires every iterator to surface it — not swallow it or end the scan
// early. The probe cases hit the fault at the root of the descent, the
// scan on the leftmost leaf walk.
func TestIteratorReadErrors(t *testing.T) {
	mem := storage.NewMem()
	buf := buffer.New("r", mem)
	var tuples [][]byte
	for id := int32(1); id <= 200; id++ {
		tuples = append(tuples, mkTuple(16, id))
	}
	f, err := Build(buf, 16, key4(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	meta := f.Meta()

	cases := []struct {
		name string
		open func(*File) am.Iterator
	}{
		{"scan", func(f *File) am.Iterator { return f.Scan() }},
		{"probe", func(f *File) am.Iterator { return f.Probe(7) }},
		{"probe-range", func(f *File) am.Iterator { return f.ProbeRange(3, 9) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := faultfs.MustParse("r:read@1")
			fbuf := buffer.New("r", sched.Wrap("r", mem))
			it := tc.open(New(fbuf, meta))
			drainToInjectedError(t, it)
		})
	}
}

// drainToInjectedError walks an iterator to its end and requires the walk
// to surface the injected error rather than end first.
func drainToInjectedError(t *testing.T, it am.Iterator) {
	t.Helper()
	err := am.Each(it, func(page.RID, []byte) error { return nil })
	if err == nil {
		t.Fatal("iterator ended without surfacing the injected read error")
	}
	if !faultfs.IsInjected(err) {
		t.Fatalf("iterator returned a non-injected error: %v", err)
	}
}

// TestLoopedChainIsCorrupt links the last leaf back to itself or to the
// first leaf, as a torn write could. A probe of the largest key and a full
// scan never see a key that ends them, so each must stop after as many
// leaves as the file holds, with am.Overrun, instead of spinning.
func TestLoopedChainIsCorrupt(t *testing.T) {
	for _, link := range []string{"self", "back"} {
		t.Run(link, func(t *testing.T) {
			var keys []int32
			for k := int32(1); k <= 400; k++ {
				keys = append(keys, k)
			}
			f := build(t, 16, keys)
			first, err := f.descend(0, true)
			if err != nil {
				t.Fatal(err)
			}
			last := first
			for {
				p, err := f.buf.View(last)
				if err != nil {
					t.Fatal(err)
				}
				if p.Next() == page.Nil {
					break
				}
				last = p.Next()
			}
			if last == first {
				t.Fatal("the tree has one leaf")
			}
			p, err := f.buf.Fetch(last)
			if err != nil {
				t.Fatal(err)
			}
			p.SetNext(map[string]page.ID{"self": last, "back": first}[link])
			f.buf.MarkDirty()
			for name, it := range map[string]am.Iterator{
				"probe":       f.Probe(400),
				"probe-range": f.ProbeRange(390, 1000),
				"scan":        f.Scan(),
			} {
				err := am.Each(it, func(page.RID, []byte) error { return nil })
				if !errors.Is(err, page.ErrCorrupt) {
					t.Errorf("%s over a %s-linked leaf chain: %v, want page.ErrCorrupt", name, link, err)
				}
			}
		})
	}
}
