package twolevel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/hashfile"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

const width = 124

func key4() am.Key { return am.Key{Offset: 0, Width: 4} }

func mkTuple(key int32, tag byte) []byte {
	b := make([]byte, width)
	binary.LittleEndian.PutUint32(b, uint32(key))
	b[4] = tag
	return b
}

// newStore builds a store over a hashed primary with n current tuples.
func newStore(t *testing.T, mode Mode, n int) *Store {
	t.Helper()
	pbuf := buffer.New("cur", storage.NewMem())
	primary, err := hashfile.Build(pbuf, hashfile.Meta{
		Width:   width,
		Key:     key4(),
		Primary: hashfile.PrimaryPages(n, width, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(1); i <= int32(n); i++ {
		if _, err := primary.Insert(mkTuple(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(primary, buffer.New("hist", storage.NewMem()), Config{
		Key:            key4(),
		Width:          width,
		Mode:           mode,
		ClusterBuckets: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func count(t *testing.T, it am.Iterator) int {
	t.Helper()
	n := 0
	if err := am.Each(it, func(page.RID, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// first returns the first tuple an iterator yields, and its address.
func first(t *testing.T, it am.Iterator) (page.RID, []byte) {
	t.Helper()
	var rid page.RID
	var tup []byte
	if err := am.Each(it, func(r page.RID, b []byte) error {
		rid, tup = r, bytes.Clone(b)
		return am.Stop
	}); err != nil {
		t.Fatal(err)
	}
	if tup == nil {
		t.Fatal("iterator yielded nothing")
	}
	return rid, tup
}

func TestSupersedeMovesToHistory(t *testing.T) {
	for _, mode := range []Mode{Simple, Clustered} {
		s := newStore(t, mode, 64)
		// Find tuple 5 and supersede it.
		rid, closed := first(t, s.ProbeCurrent(5))
		closed[4] = 0xC1
		if _, err := s.Supersede(rid, closed); err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertCurrent(mkTuple(5, 2)); err != nil {
			t.Fatal(err)
		}

		if got := count(t, s.ProbeCurrent(5)); got != 1 {
			t.Errorf("mode %d: current versions = %d, want 1", mode, got)
		}
		if got := count(t, s.ProbeAll(5)); got != 2 {
			t.Errorf("mode %d: all versions = %d, want 2", mode, got)
		}
		if got := count(t, s.ScanAll()); got != 65 {
			t.Errorf("mode %d: total versions = %d, want 65", mode, got)
		}
		if got := count(t, s.ScanCurrent()); got != 64 {
			t.Errorf("mode %d: current scan = %d, want 64", mode, got)
		}
		if got := count(t, s.HistoryScan()); got != 1 {
			t.Errorf("mode %d: history scan = %d, want 1", mode, got)
		}
	}
}

func TestVersionScanCosts(t *testing.T) {
	// Supersede one tuple 16 times: the simple layout reads one page per
	// fetched version (scattered), the clustered layout packs them.
	build := func(mode Mode) (*Store, *buffer.Buffered) {
		s := newStore(t, mode, 64)
		for v := byte(1); v <= 16; v++ {
			rid, closed := first(t, s.ProbeCurrent(9))
			if _, err := s.Supersede(rid, closed); err != nil {
				t.Fatal(err)
			}
			// Scatter: interleave history of other keys (simple layout).
			for k := int32(20); k < 27; k++ {
				if _, err := s.InsertHistory(mkTuple(k, v)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.InsertCurrent(mkTuple(9, v)); err != nil {
				t.Fatal(err)
			}
		}
		var histBuf *buffer.Buffered
		if mode == Simple {
			histBuf = s.histHeap.Buffer()
		} else {
			histBuf = s.histHash.Buffer()
		}
		return s, histBuf
	}

	s, hist := build(Simple)
	hist.Invalidate()
	hist.ResetStats()
	if got := count(t, s.ProbeAll(9)); got != 17 {
		t.Fatalf("simple: versions = %d", got)
	}
	simpleReads := hist.Stats().Reads
	if simpleReads != 16 {
		t.Errorf("simple layout read %d history pages, want 16 (one per scattered version)", simpleReads)
	}

	c, chist := build(Clustered)
	chist.Invalidate()
	chist.ResetStats()
	if got := count(t, c.ProbeAll(9)); got != 17 {
		t.Fatalf("clustered: versions = %d", got)
	}
	clusteredReads := chist.Stats().Reads
	// 16 versions of 124 bytes cluster into ceil(16/8) = 2 pages.
	if clusteredReads != 2 {
		t.Errorf("clustered layout read %d history pages, want 2", clusteredReads)
	}
}

func TestCurrentMutations(t *testing.T) {
	s := newStore(t, Simple, 8)
	rid, tup := first(t, s.ProbeCurrent(3))
	tup[4] = 0x7E
	if err := s.UpdateCurrent(rid, tup); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(rid)
	if err != nil || got[4] != 0x7E {
		t.Fatalf("Get after UpdateCurrent: %v %v", got, err)
	}
	if err := s.RemoveCurrent(rid); err != nil {
		t.Fatal(err)
	}
	if got := count(t, s.ProbeAll(3)); got != 0 {
		t.Errorf("after RemoveCurrent: %d versions", got)
	}
}

func TestGetHistory(t *testing.T) {
	s := newStore(t, Clustered, 8)
	rid, err := s.InsertHistory(mkTuple(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	tup, err := s.GetHistory(rid)
	if err != nil || tup[4] != 9 {
		t.Fatalf("GetHistory: %v %v", tup, err)
	}
}

func TestConfigValidation(t *testing.T) {
	pbuf := buffer.New("cur", storage.NewMem())
	primary, _ := hashfile.Build(pbuf, hashfile.Meta{Width: width, Key: key4(), Primary: 2})
	if _, err := New(primary, buffer.New("h", storage.NewMem()), Config{
		Key: key4(), Width: width, Mode: Clustered, ClusterBuckets: 0,
	}); err == nil {
		t.Error("clustered store without buckets accepted")
	}
	if _, err := New(primary, buffer.New("h", storage.NewMem()), Config{
		Key: key4(), Width: width, Mode: Mode(9),
	}); err == nil {
		t.Error("unknown mode accepted")
	}
	if !primary.Keyed() {
		t.Error("hash primary should be keyed")
	}
}

func TestHistoryPages(t *testing.T) {
	s := newStore(t, Simple, 8)
	if s.HistoryPages() != 0 {
		t.Errorf("fresh history pages = %d", s.HistoryPages())
	}
	for i := 0; i < 20; i++ {
		s.InsertHistory(mkTuple(1, byte(i)))
	}
	// 20 tuples of 124 bytes: 3 heap pages.
	if got := s.HistoryPages(); got != 3 {
		t.Errorf("history pages = %d, want 3", got)
	}
	if s.Mode() != Simple {
		t.Error("Mode")
	}
	if s.Primary() == nil {
		t.Error("Primary")
	}
}

func TestUnreadRIDInvariant(t *testing.T) {
	// ProbeAll RIDs for current versions must be resolvable via Get.
	s := newStore(t, Simple, 16)
	rid, _ := first(t, s.ProbeCurrent(2))
	if _, err := s.Get(rid); err != nil {
		t.Fatal(err)
	}
	if rid.Page == page.Nil {
		t.Fatal("nil RID")
	}
}
