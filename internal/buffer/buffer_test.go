package buffer

import (
	"errors"
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

func newBuf(t *testing.T, pages int) *Buffered {
	t.Helper()
	m := storage.NewMem()
	for i := 0; i < pages; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return New("test", m)
}

func TestSingleFrameCounting(t *testing.T) {
	b := newBuf(t, 3)

	// First fetch: miss.
	if _, err := b.Fetch(0); err != nil {
		t.Fatal(err)
	}
	// Same page again: hit, no read.
	if _, err := b.Fetch(0); err != nil {
		t.Fatal(err)
	}
	// Different page evicts: miss.
	if _, err := b.Fetch(1); err != nil {
		t.Fatal(err)
	}
	// Back to page 0: the single frame was evicted, so this is a re-read.
	// This is the paper's policy: "a page resides in main memory only until
	// another page from the same relation is brought in."
	if _, err := b.Fetch(0); err != nil {
		t.Fatal(err)
	}

	s := b.Stats()
	if s.Reads != 3 {
		t.Errorf("Reads = %d, want 3", s.Reads)
	}
	if s.Hits != 1 {
		t.Errorf("Hits = %d, want 1", s.Hits)
	}
	if s.Writes != 0 {
		t.Errorf("Writes = %d, want 0", s.Writes)
	}
}

func TestDirtyEvictionWrites(t *testing.T) {
	b := newBuf(t, 2)
	p, err := b.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Format(8, page.KindData)
	p.Insert([]byte("12345678"))
	b.MarkDirty()

	// Eviction flushes.
	if _, err := b.Fetch(1); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d, want 1", got)
	}

	// The written page must be durable.
	p, err = b.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Live() != 1 {
		t.Errorf("page 0 lost its tuple after eviction")
	}

	// Clean eviction writes nothing.
	if _, err := b.Fetch(1); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Writes; got != 1 {
		t.Errorf("clean eviction wrote; Writes = %d, want 1", got)
	}
}

// failingFile fails every page write while fail is set.
type failingFile struct {
	storage.File
	fail bool
}

func (f *failingFile) WritePage(id page.ID, p *page.Page) error {
	if f.fail {
		return errors.New("write refused")
	}
	return f.File.WritePage(id, p)
}

// TestWriteDirty: writing the dirty frames through puts the pending
// scratch's content in the file, charges nothing, and leaves the frame
// dirty, so the eviction that cleans it still writes it and counts it
// once. A failed write-through leaves the frame dirty as well.
func TestWriteDirty(t *testing.T) {
	m := storage.NewMem()
	for i := 0; i < 2; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	f := &failingFile{File: m, fail: true}
	b := New("test", f)
	p, err := b.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Format(8, page.KindData)
	p.Insert([]byte("12345678"))
	b.MarkDirty()
	if err := b.WriteDirty(); err == nil {
		t.Fatalf("a refused write-through reported success")
	}
	f.fail = false
	if err := b.WriteDirty(); err != nil {
		t.Fatal(err)
	}
	var got page.Page
	if err := m.ReadPage(0, &got); err != nil || got.Live() != 1 {
		t.Fatalf("page 0 after the write-through: %v, %d live tuples, want 1", err, got.Live())
	}
	if s := b.Stats(); s != (Stats{Reads: 1, ReadOps: 1}) {
		t.Fatalf("write-through charged %+v, want only the fetch", s)
	}
	if _, err := b.Fetch(1); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Writes; got != 1 {
		t.Fatalf("eviction after the write-through: Writes = %d, want 1", got)
	}
}

func TestFlushIdempotent(t *testing.T) {
	b := newBuf(t, 1)
	p, _ := b.Fetch(0)
	p.Format(4, page.KindData)
	b.MarkDirty()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Writes; got != 1 {
		t.Errorf("Writes = %d, want 1 (second Flush must be a no-op)", got)
	}
}

func TestInvalidateForcesReRead(t *testing.T) {
	b := newBuf(t, 1)
	b.Fetch(0)
	if err := b.Invalidate(); err != nil {
		t.Fatal(err)
	}
	b.Fetch(0)
	s := b.Stats()
	if s.Reads != 2 || s.Hits != 0 {
		t.Errorf("after Invalidate: reads=%d hits=%d, want 2,0", s.Reads, s.Hits)
	}
}

func TestAllocateIsNotARead(t *testing.T) {
	b := newBuf(t, 0)
	id, p, err := b.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("allocated id = %d", id)
	}
	p.Format(4, page.KindData)
	if got := b.Stats().Reads; got != 0 {
		t.Errorf("Allocate counted %d reads, want 0", got)
	}
	// The allocated page is dirty and flushes as one write.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Writes; got != 1 {
		t.Errorf("Writes = %d, want 1", got)
	}
	// And it is the current frame: fetching it is a hit.
	if _, err := b.Fetch(id); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Hits; got != 1 {
		t.Errorf("Hits = %d, want 1", got)
	}
}

func TestResetStats(t *testing.T) {
	b := newBuf(t, 1)
	b.Fetch(0)
	b.ResetStats()
	if s := b.Stats(); s != (Stats{}) {
		t.Errorf("after reset: %+v", s)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, Writes: 2, Hits: 1, ReadOps: 4}
	d := Stats{Reads: 3, Writes: 1, Hits: 1, ReadOps: 2}
	if got := a.Add(d); got != (Stats{Reads: 8, Writes: 3, Hits: 2, ReadOps: 6}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(d); got != (Stats{Reads: 2, Writes: 1, Hits: 0, ReadOps: 2}) {
		t.Errorf("Sub = %+v", got)
	}
}

func TestTruncateEmptiesFrame(t *testing.T) {
	b := newBuf(t, 2)
	b.Fetch(1)
	if err := b.Truncate(); err != nil {
		t.Fatal(err)
	}
	if b.NumPages() != 0 {
		t.Errorf("NumPages = %d", b.NumPages())
	}
	if _, err := b.Fetch(1); err == nil {
		t.Error("Fetch after Truncate succeeded")
	}
}

func TestFetchErrorLeavesFrameEmpty(t *testing.T) {
	b := newBuf(t, 1)
	if _, err := b.Fetch(9); err == nil {
		t.Fatal("Fetch(9) succeeded")
	}
	// A subsequent valid fetch must not be poisoned by the failed one.
	if _, err := b.Fetch(0); err != nil {
		t.Fatal(err)
	}
}
