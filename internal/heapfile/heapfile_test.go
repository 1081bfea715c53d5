package heapfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

func newHeap(width int) *File {
	return New(buffer.New("t", storage.NewMem()), width)
}

func mkTuple(width int, key int32) []byte {
	b := make([]byte, width)
	binary.LittleEndian.PutUint32(b, uint32(key))
	return b
}

func TestInsertScanOrder(t *testing.T) {
	f := newHeap(8)
	for i := int32(0); i < 50; i++ {
		if _, err := f.Insert(mkTuple(8, i)); err != nil {
			t.Fatal(err)
		}
	}
	i := int32(0)
	if err := am.Each(f.Scan(), func(_ page.RID, tup []byte) error {
		if got := int32(binary.LittleEndian.Uint32(tup)); got != i {
			t.Fatalf("scan[%d] = %d", i, got)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != 50 {
		t.Errorf("scan yielded %d tuples, want 50", i)
	}
}

func TestPagePacking(t *testing.T) {
	// 124-byte temporal tuples pack 8 per page; a scan of 1024 of them
	// reads 128 pages — the paper's temp-relation arithmetic.
	f := newHeap(124)
	for i := int32(0); i < 1024; i++ {
		f.Insert(mkTuple(124, i))
	}
	if got := f.NumPages(); got != 128 {
		t.Errorf("pages = %d, want 128", got)
	}
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	if err := am.Each(f.Scan(), func(page.RID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := f.Buffer().Stats().Reads; got != 128 {
		t.Errorf("scan read %d pages, want 128", got)
	}
}

func TestWrongWidthRejected(t *testing.T) {
	f := newHeap(8)
	if _, err := f.Insert(make([]byte, 9)); err == nil {
		t.Error("wrong-width insert succeeded")
	}
}

func TestGetUpdateDelete(t *testing.T) {
	f := newHeap(8)
	rid, err := f.Insert(mkTuple(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(rid)
	if err != nil || !bytes.Equal(got, mkTuple(8, 1)) {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if err := f.Update(rid, mkTuple(8, 2)); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Get(rid)
	if !bytes.Equal(got, mkTuple(8, 2)) {
		t.Error("Update not visible")
	}
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(rid); err == nil {
		t.Error("Get after Delete succeeded")
	}
	// Deleted space is reused.
	rid2, err := f.Insert(mkTuple(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rid2 != rid {
		t.Errorf("freed slot not reused: %v vs %v", rid2, rid)
	}
}

func TestKeyedProbe(t *testing.T) {
	buf := buffer.New("t", storage.NewMem())
	f := NewKeyed(buf, 8, am.Key{Offset: 0, Width: 4})
	for i := int32(0); i < 30; i++ {
		f.Insert(mkTuple(8, i%3))
	}
	n := 0
	if err := am.Each(f.Probe(1), func(_ page.RID, tup []byte) error {
		if binary.LittleEndian.Uint32(tup) != 1 {
			t.Fatal("probe yielded wrong key")
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("probe found %d, want 10", n)
	}
	// A heap probe is a full scan — every page is read.
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	if err := am.Each(f.Probe(2), func(page.RID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := int(f.Buffer().Stats().Reads), f.NumPages(); got != want {
		t.Errorf("heap probe read %d pages, want %d", got, want)
	}
}

func TestUnkeyedProbeIsEmpty(t *testing.T) {
	f := newHeap(8)
	f.Insert(mkTuple(8, 1))
	if f.Keyed() {
		t.Error("plain heap reports Keyed")
	}
	if err := am.Each(f.Probe(1), func(page.RID, []byte) error {
		t.Error("unkeyed probe yielded a tuple")
		return am.Stop
	}); err != nil {
		t.Fatal(err)
	}
}

// Property: a heap preserves an arbitrary insert sequence exactly,
// interleaved with deletions.
func TestHeapContentsProperty(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16 % 500)
		h := newHeap(16)
		live := map[page.RID][]byte{}
		for i := 0; i < n; i++ {
			if rng.Intn(4) != 0 || len(live) == 0 {
				b := make([]byte, 16)
				rng.Read(b)
				rid, err := h.Insert(b)
				if err != nil {
					return false
				}
				live[rid] = b
			} else {
				for rid := range live {
					if err := h.Delete(rid); err != nil {
						return false
					}
					delete(live, rid)
					break
				}
			}
		}
		seen := 0
		err := am.Each(h.Scan(), func(rid page.RID, tup []byte) error {
			if want, exists := live[rid]; !exists || !bytes.Equal(tup, want) {
				return errors.New("scan yielded a tuple that is not live")
			}
			seen++
			return nil
		})
		return err == nil && seen == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
