package buffer

import (
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

func newFramesBuf(t *testing.T, pages, frames int) *Buffered {
	t.Helper()
	m := storage.NewMem()
	for i := 0; i < pages; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return NewPooled("test", m, frames, 0)
}

func TestMultiFrameHits(t *testing.T) {
	b := newFramesBuf(t, 4, 2)
	b.Fetch(0)
	b.Fetch(1)
	// Both resident: re-fetching either is a hit.
	b.Fetch(0)
	b.Fetch(1)
	s := b.Stats()
	if s.Reads != 2 || s.Hits != 2 {
		t.Errorf("reads=%d hits=%d, want 2,2", s.Reads, s.Hits)
	}
}

func TestLRUEviction(t *testing.T) {
	b := newFramesBuf(t, 4, 2)
	b.Fetch(0)
	b.Fetch(1)
	b.Fetch(0) // 0 becomes most recent
	b.Fetch(2) // evicts 1 (LRU)
	if _, err := b.Fetch(0); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	// Reads: 0,1,2 = 3; hits: 0 (twice).
	if s.Reads != 3 || s.Hits != 2 {
		t.Errorf("reads=%d hits=%d, want 3,2", s.Reads, s.Hits)
	}
	// 1 was evicted: fetching it is a read.
	b.Fetch(1)
	if got := b.Stats().Reads; got != 4 {
		t.Errorf("reads=%d, want 4", got)
	}
}

func TestMultiFrameDirtyWriteback(t *testing.T) {
	b := newFramesBuf(t, 3, 2)
	p, _ := b.Fetch(0)
	p.Format(8, page.KindData)
	p.Insert([]byte("abcdefgh"))
	b.MarkDirty()
	b.Fetch(1)
	b.Fetch(2) // evicts 0, which must be flushed
	if got := b.Stats().Writes; got != 1 {
		t.Fatalf("writes=%d, want 1", got)
	}
	p, _ = b.Fetch(0)
	if p.Live() != 1 {
		t.Error("dirty page lost on multi-frame eviction")
	}
}

func TestMarkDirtyTargetsMostRecent(t *testing.T) {
	b := newFramesBuf(t, 2, 2)
	b.Fetch(0)
	p, _ := b.Fetch(1)
	p.Format(8, page.KindData)
	b.MarkDirty() // must mark page 1, not page 0
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Writes; got != 1 {
		t.Fatalf("writes=%d, want 1", got)
	}
	var chk page.Page
	// Re-read through a fresh buffer to confirm page 1 was the one written.
	b.Invalidate()
	q, _ := b.Fetch(1)
	if q.Width() != 8 {
		t.Error("page 1 was not written back")
	}
	_ = chk
}

func TestSingleFrameUnchanged(t *testing.T) {
	// New() must behave exactly like the paper's policy.
	b := New("x", storage.NewMem())
	if b.Frames() != 1 {
		t.Fatalf("New gives %d frames", b.Frames())
	}
	if nb := NewPooled("x", storage.NewMem(), 0, 0); nb.Frames() != 1 {
		t.Errorf("frame count clamped to %d, want 1", nb.Frames())
	}
}
