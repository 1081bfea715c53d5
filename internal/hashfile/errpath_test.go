package hashfile

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
// early.
func TestIteratorReadErrors(t *testing.T) {
	mem := storage.NewMem()
	buf := buffer.New("r", mem)
	f, err := Build(buf, Meta{
		Width:   16,
		Key:     key4(),
		Primary: PrimaryPages(200, 16, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(1); id <= 200; id++ {
		if _, err := f.Insert(mkTuple(16, id)); err != nil {
			t.Fatal(err)
		}
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

// TestLoopedChainIsCorrupt links the last page of a full overflow chain to
// itself, and back to the page before it, as a torn write could, and
// requires Probe, Scan and Insert each to fail with page.ErrCorrupt
// instead of walking the loop forever.
func TestLoopedChainIsCorrupt(t *testing.T) {
	for _, link := range []struct {
		name string
		to   page.ID
	}{{"self", 2}, {"back", 1}} {
		t.Run(link.name, func(t *testing.T) {
			buf := buffer.New("r", storage.NewMem())
			f, err := Build(buf, Meta{Width: 16, Key: key4(), Primary: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3*page.Capacity(16); i++ { // pages 0 -> 1 -> 2, all full
				if _, err := f.Insert(mkTuple(16, 7)); err != nil {
					t.Fatal(err)
				}
			}
			p, err := buf.Fetch(2)
			if err != nil {
				t.Fatal(err)
			}
			p.SetNext(link.to)
			buf.MarkDirty()
			for _, op := range []struct {
				name string
				run  func() error
			}{
				{"probe", func() error { _, err := count(f.Probe(7)); return err }},
				{"scan", func() error { _, err := count(f.Scan()); return err }},
				{"insert", func() error { _, err := f.Insert(mkTuple(16, 7)); return err }},
			} {
				if err := op.run(); !errors.Is(err, page.ErrCorrupt) {
					t.Errorf("%s over a %s-linked chain: %v, want page.ErrCorrupt", op.name, link.name, err)
				}
			}
		})
	}
}
