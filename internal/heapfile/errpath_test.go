package heapfile

import (
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/faultfs"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// TestIteratorReadErrors injects a fault into the first page read and
// requires every iterator to surface it — not swallow it or end the scan
// early.
func TestIteratorReadErrors(t *testing.T) {
	mem := storage.NewMem()
	buf := buffer.New("r", mem)
	f := NewKeyed(buf, 16, am.Key{Offset: 0, Width: 4})
	for id := int32(1); id <= 200; id++ {
		if _, err := f.Insert(mkTuple(16, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}

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
			it := tc.open(NewKeyed(fbuf, 16, am.Key{Offset: 0, Width: 4}))
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
