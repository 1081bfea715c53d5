package twolevel

import (
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/faultfs"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// TestIteratorReadErrors targets the store's own iterators — concatIter
// (ScanAll, current leg then history leg) and chainIter (ProbeAll over the
// simple store's version chain) — with a fault scheduled on the history
// file only, so the current leg drains cleanly and the error must surface
// from the history leg of the composite.
func TestIteratorReadErrors(t *testing.T) {
	memP, memH := storage.NewMem(), storage.NewMem()
	pbuf := buffer.New("cur", memP)
	hbuf := buffer.New("hist", memH)
	primary := heapfile.NewKeyed(pbuf, width, key4())
	s, err := New(primary, hbuf, Config{Key: key4(), Width: width, Mode: Simple})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(1); i <= 20; i++ {
		rid, err := s.InsertCurrent(mkTuple(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		// Supersede each once so every key has a history version.
		if _, err := s.Supersede(rid, mkTuple(i, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertCurrent(mkTuple(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pbuf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hbuf.Flush(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		open func(*Store) am.Iterator
	}{
		{"scan-all", func(s *Store) am.Iterator { return s.ScanAll() }},
		{"probe-all", func(s *Store) am.Iterator { return s.ProbeAll(7) }},
		{"range-all", func(s *Store) am.Iterator { return s.RangeAll(3, 9) }},
		{"history-scan", func(s *Store) am.Iterator { return s.HistoryScan() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := faultfs.MustParse("hist:read@1")
			view := s.View(
				heapfile.NewKeyed(buffer.New("cur", memP), width, key4()),
				buffer.New("hist", sched.Wrap("hist", memH)),
			)
			err := am.Each(tc.open(view), func(page.RID, []byte) error { return nil })
			if err == nil {
				t.Fatal("iterator ended without surfacing the injected read error")
			}
			if !faultfs.IsInjected(err) {
				t.Fatalf("iterator returned a non-injected error: %v", err)
			}
		})
	}
}
