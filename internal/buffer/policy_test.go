package buffer

import (
	"testing"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

func newPolBuf(t *testing.T, pages int, pol Policy) *Buffered {
	t.Helper()
	m := storage.NewMem()
	for i := 0; i < pages; i++ {
		if _, err := m.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return NewWithPolicy("test", m, pol)
}

func TestPolicyNormalize(t *testing.T) {
	cases := []struct {
		in, want Policy
	}{
		{Policy{}, Policy{Frames: 1}},
		{Policy{Frames: -3, Readahead: 5}, Policy{Frames: 1}},
		{Policy{Frames: 1, Readahead: 9}, Policy{Frames: 1}},
		{Policy{Frames: 4, Readahead: 9}, Policy{Frames: 4, Readahead: 3}},
		{Policy{Frames: 4, Readahead: -1}, Policy{Frames: 4}},
		{Policy{Frames: 8, Readahead: 2}, Policy{Frames: 8, Readahead: 2}},
	}
	for _, c := range cases {
		if got := c.in.Normalize(); got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestLRUEvictionOrder proves the victim is the least-recently-used frame:
// touching page 0 saves it from the eviction that fetching a fourth page
// into a three-frame pool forces.
func TestLRUEvictionOrder(t *testing.T) {
	b := newPolBuf(t, 5, Policy{Frames: 3})
	for _, id := range []page.ID{0, 1, 2} {
		if _, err := b.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0: now 1 is the LRU frame.
	if _, err := b.Fetch(0); err != nil {
		t.Fatal(err)
	}
	// A fourth page must evict 1, not 0 or 2.
	if _, err := b.Fetch(3); err != nil {
		t.Fatal(err)
	}
	for _, id := range []page.ID{0, 2, 3} {
		if _, err := b.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Stats()
	if s.Reads != 4 || s.Hits != 4 {
		t.Fatalf("reads=%d hits=%d, want 4,4 (1 must be the only eviction)", s.Reads, s.Hits)
	}
	// And 1 really is gone: re-fetching it is a miss.
	if _, err := b.Fetch(1); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Reads; got != 5 {
		t.Errorf("re-fetching evicted page: reads=%d, want 5", got)
	}
}

// TestSingleFramePolicyMatchesDefault pins the equivalence the measurement
// mode rests on: Policy{Frames: 1} produces exactly the counters of the
// seed's hardwired single frame, fetch for fetch.
func TestSingleFramePolicyMatchesDefault(t *testing.T) {
	drive := func(t *testing.T, b *Buffered) Stats {
		t.Helper()
		p, err := b.Fetch(0)
		if err != nil {
			t.Fatal(err)
		}
		p.Format(8, page.KindData)
		if _, err := p.Insert([]byte("12345678")); err != nil {
			t.Fatal(err)
		}
		b.MarkDirty()
		for _, id := range []page.ID{1, 1, 0, 2} {
			if _, err := b.Fetch(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.Invalidate(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Fetch(0); err != nil {
			t.Fatal(err)
		}
		return b.Stats()
	}
	def := drive(t, newBuf(t, 3))
	pol := drive(t, newPolBuf(t, 3, Policy{Frames: 1}))
	if def != pol {
		t.Fatalf("Policy{Frames:1} diverges from the default single frame:\n  default: %+v\n  policy:  %+v", def, pol)
	}
	if pol.ReadOps != pol.Reads {
		t.Errorf("single-frame ReadOps = %d, want Reads (%d)", pol.ReadOps, pol.Reads)
	}
}

// TestViewAheadBatches checks the batching contract: a readahead fetch
// reads the whole run in one operation (ReadOps 1) and the following pages
// are hits.
func TestViewAheadBatches(t *testing.T) {
	b := newPolBuf(t, 8, Policy{Frames: 8, Readahead: 4})
	if _, err := b.ViewAhead(0, 3); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Reads != 4 || s.ReadOps != 1 || s.Hits != 0 {
		t.Fatalf("after ViewAhead(0,3): %+v, want reads=4 ops=1 hits=0", s)
	}
	for _, id := range []page.ID{1, 2, 3} {
		if _, err := b.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.Stats(); s.Reads != 4 || s.Hits != 3 {
		t.Fatalf("prefetched pages were not hits: %+v", s)
	}
}

// TestViewAheadStopsAtResident ensures a batch never re-reads a page that
// is already in a frame — that would inflate Reads and desynchronize the
// frame pool.
func TestViewAheadStopsAtResident(t *testing.T) {
	b := newPolBuf(t, 8, Policy{Frames: 8, Readahead: 7})
	if _, err := b.Fetch(2); err != nil {
		t.Fatal(err)
	}
	// Pages 0..1 are free, 2 is resident: the batch must stop at it.
	if _, err := b.ViewAhead(0, 7); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Reads != 3 || s.ReadOps != 2 {
		t.Fatalf("after ViewAhead into resident page: %+v, want reads=3 ops=2", s)
	}
	if _, err := b.Fetch(2); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Hits != 1 {
		t.Fatalf("resident page was disturbed by the batch: %+v", s)
	}
}

// TestViewAheadSingleFrameDegenerates pins that readahead self-caps on a
// single-frame pool: ViewAhead behaves exactly like Fetch, so a stray
// hint cannot change measurement-mode counters.
func TestViewAheadSingleFrameDegenerates(t *testing.T) {
	b := newPolBuf(t, 4, Policy{Frames: 1})
	for _, id := range []page.ID{0, 1, 0} {
		if _, err := b.ViewAhead(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.Stats(); s.Reads != 3 || s.ReadOps != 3 || s.Hits != 0 {
		t.Fatalf("single-frame ViewAhead: %+v, want reads=3 ops=3 hits=0", s)
	}
}

// TestWithViewGrowsSharedPool checks that a pooled view widens the shared
// frame pool (monotone growth) and that pages it faults in are visible as
// hits through the original handle.
func TestWithViewGrowsSharedPool(t *testing.T) {
	base := newPolBuf(t, 4, Policy{Frames: 1})
	a := NewAccount()
	view := base.WithView(a, Policy{Frames: 4})
	for _, id := range []page.ID{0, 1, 2} {
		if _, err := view.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	if s := a.Stats(); s.Reads != 3 || s.Hits != 0 {
		t.Fatalf("view stats: %+v, want reads=3", s)
	}
	// The base handle shares the grown pool: page 0 is still resident.
	if _, err := base.Fetch(0); err != nil {
		t.Fatal(err)
	}
	if s := base.Stats(); s.Hits != 1 || s.Reads != 3 {
		t.Fatalf("base handle after view fetches: %+v, want hits=1 reads=3", s)
	}
}
