package secindex

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

func newIdx(t *testing.T, structure Structure, levels int) *Index {
	t.Helper()
	cur := buffer.New("ix", storage.NewMem())
	var hist *buffer.Buffered
	if levels == 2 {
		hist = buffer.New("ixh", storage.NewMem())
	}
	ix, err := New(Config{Name: "ix", Attr: "amount", Structure: structure, Levels: levels}, cur, hist)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func tid(p int32, s uint16, hist bool) TID {
	return TID{History: hist, RID: page.RID{Page: page.ID(p), Slot: s}}
}

func TestEntriesPerPageMatchesPaper(t *testing.T) {
	// Section 6: "can store 101 entries in a page of 1024 bytes".
	if EntriesPerPage != 101 {
		t.Errorf("EntriesPerPage = %d, want 101", EntriesPerPage)
	}
}

func TestNewValidation(t *testing.T) {
	cur := buffer.New("ix", storage.NewMem())
	if _, err := New(Config{Levels: 3}, cur, nil); err == nil {
		t.Error("levels=3 accepted")
	}
	if _, err := New(Config{Levels: 2}, cur, nil); err == nil {
		t.Error("2-level index without history buffer accepted")
	}
	if _, err := New(Config{Levels: 1}, cur, buffer.New("h", storage.NewMem())); err == nil {
		t.Error("1-level index with history buffer accepted")
	}
}

func TestInsertProbeBothStructures(t *testing.T) {
	for _, structure := range []Structure{HeapIdx, HashIdx} {
		ix := newIdx(t, structure, 1)
		for i := int32(0); i < 500; i++ {
			if err := ix.Insert(int64(i%10), tid(i, 0, false)); err != nil {
				t.Fatal(err)
			}
		}
		tids, err := ix.ProbeAll(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(tids) != 50 {
			t.Fatalf("%v: probe found %d, want 50", structure, len(tids))
		}
		for _, x := range tids {
			if int64(x.RID.Page)%10 != 3 {
				t.Fatalf("%v: wrong entry %v", structure, x)
			}
		}
		none, err := ix.ProbeAll(99)
		if err != nil || len(none) != 0 {
			t.Fatalf("%v: probe of missing key: %v, %v", structure, none, err)
		}
	}
}

func TestHashProbeReadsOneBucket(t *testing.T) {
	ix := newIdx(t, HashIdx, 1)
	for k := int64(0); k < 100; k++ {
		for v := int32(0); v < 5; v++ {
			ix.Insert(k, tid(v, 0, false))
		}
	}
	buf := ix.Buffers()[0]
	buf.Invalidate()
	buf.ResetStats()
	if _, err := ix.ProbeAll(42); err != nil {
		t.Fatal(err)
	}
	if got := buf.Stats().Reads; got != 1 {
		t.Errorf("hash probe read %d pages, want 1", got)
	}
}

func TestHeapProbeReadsWholeIndex(t *testing.T) {
	ix := newIdx(t, HeapIdx, 1)
	for i := int32(0); i < 500; i++ {
		ix.Insert(int64(i), tid(i, 0, false))
	}
	buf := ix.Buffers()[0]
	buf.Invalidate()
	buf.ResetStats()
	if _, err := ix.ProbeAll(3); err != nil {
		t.Fatal(err)
	}
	want := int64((500 + EntriesPerPage - 1) / EntriesPerPage)
	if got := buf.Stats().Reads; got != want {
		t.Errorf("heap probe read %d pages, want %d", got, want)
	}
}

func TestTwoLevelSeparation(t *testing.T) {
	ix := newIdx(t, HashIdx, 2)
	ix.Insert(7, tid(1, 0, false))
	ix.InsertHistory(7, tid(2, 0, true))
	if !ix.CanProbeCurrent() {
		t.Fatal("2-level index cannot probe current")
	}
	cur, err := ix.ProbeCurrent(7)
	if err != nil || len(cur) != 1 || cur[0].RID.Page != 1 {
		t.Fatalf("ProbeCurrent: %v, %v", cur, err)
	}
	all, err := ix.ProbeAll(7)
	if err != nil || len(all) != 2 {
		t.Fatalf("ProbeAll: %v, %v", all, err)
	}
	// Supersede: the current entry moves to the history index.
	if err := ix.Move(7, tid(1, 0, false), tid(3, 0, true)); err != nil {
		t.Fatal(err)
	}
	cur, _ = ix.ProbeCurrent(7)
	if len(cur) != 0 {
		t.Fatalf("after Move, current = %v", cur)
	}
	all, _ = ix.ProbeAll(7)
	if len(all) != 2 {
		t.Fatalf("after Move, all = %v", all)
	}
}

func TestOneLevelMoveRewritesTID(t *testing.T) {
	ix := newIdx(t, HeapIdx, 1)
	ix.Insert(7, tid(1, 0, false))
	if err := ix.Move(7, tid(1, 0, false), tid(9, 2, true)); err != nil {
		t.Fatal(err)
	}
	all, _ := ix.ProbeAll(7)
	if len(all) != 1 || all[0] != tid(9, 2, true) {
		t.Fatalf("after Move: %v", all)
	}
	if err := ix.Move(7, tid(1, 0, false), tid(9, 2, true)); err == nil {
		t.Error("Move of missing entry succeeded")
	}
}

func TestRemove(t *testing.T) {
	for _, structure := range []Structure{HeapIdx, HashIdx} {
		ix := newIdx(t, structure, 1)
		ix.Insert(1, tid(10, 0, false))
		ix.Insert(1, tid(11, 0, false))
		ix.Insert(1, tid(12, 0, false))
		if err := ix.Remove(1, tid(11, 0, false)); err != nil {
			t.Fatal(err)
		}
		all, _ := ix.ProbeAll(1)
		if len(all) != 2 {
			t.Fatalf("%v: after Remove: %v", structure, all)
		}
		for _, x := range all {
			if x.RID.Page == 11 {
				t.Fatalf("%v: removed entry still present", structure)
			}
		}
		if err := ix.Remove(1, tid(99, 0, false)); err == nil {
			t.Errorf("%v: Remove of missing entry succeeded", structure)
		}
	}
}

func TestOverflowChains(t *testing.T) {
	// More than a page of entries for one key chains overflow pages.
	ix := newIdx(t, HashIdx, 1)
	n := EntriesPerPage*2 + 10
	for i := 0; i < n; i++ {
		if err := ix.Insert(5, tid(int32(i), 0, false)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ix.ProbeAll(5)
	if err != nil || len(all) != n {
		t.Fatalf("probe found %d, want %d", len(all), n)
	}
	if got := ix.NumPages(); got != 3 {
		t.Errorf("index pages = %d, want 3", got)
	}
}

// Property: a random sequence of inserts and removes leaves exactly the
// surviving entries probeable, in both structures and level forms.
func TestIndexContentsProperty(t *testing.T) {
	f := func(seed int64, hash, twoLevel bool) bool {
		rng := rand.New(rand.NewSource(seed))
		structure := HeapIdx
		if hash {
			structure = HashIdx
		}
		levels := 1
		var hist *buffer.Buffered
		if twoLevel {
			levels = 2
			hist = buffer.New("ixh", storage.NewMem())
		}
		ix, err := New(Config{Name: "p", Attr: "a", Structure: structure, Levels: levels},
			buffer.New("ix", storage.NewMem()), hist)
		if err != nil {
			return false
		}
		type entry struct {
			key int64
			t   TID
		}
		var live []entry
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				e := entry{key: int64(rng.Intn(20)), t: tid(int32(op), uint16(op%7), rng.Intn(2) == 0)}
				var err error
				if e.t.History {
					err = ix.InsertHistory(e.key, e.t)
				} else {
					err = ix.Insert(e.key, e.t)
				}
				if err != nil {
					return false
				}
				live = append(live, e)
			} else {
				i := rng.Intn(len(live))
				if err := ix.Remove(live[i].key, live[i].t); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		counts := map[int64]int{}
		for _, e := range live {
			counts[e.key]++
		}
		for k := int64(0); k < 20; k++ {
			got, err := ix.ProbeAll(k)
			if err != nil || len(got) != counts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLoopedChainIsCorrupt links the last page of a key's three-page
// bucket chain back to itself or to the chain's head, as a torn write
// could. A probe and an insert of that key and a remove of an absent entry
// walk the whole chain, so each must stop after as many pages as the file
// holds, with am.Overrun, instead of spinning.
func TestLoopedChainIsCorrupt(t *testing.T) {
	for _, link := range []string{"self", "back"} {
		t.Run(link, func(t *testing.T) {
			ix := newIdx(t, HashIdx, 1)
			for i := 0; i < 3*EntriesPerPage; i++ { // pages head -> 1 -> 2, all full
				if err := ix.Insert(5, tid(int32(i), 0, false)); err != nil {
					t.Fatal(err)
				}
			}
			buf, head := ix.cur.buf, ix.cur.dir[5]
			last := head
			for {
				p, err := buf.View(last)
				if err != nil {
					t.Fatal(err)
				}
				if p.Next() == page.Nil {
					break
				}
				last = p.Next()
			}
			p, err := buf.Fetch(last)
			if err != nil {
				t.Fatal(err)
			}
			p.SetNext(map[string]page.ID{"self": last, "back": head}[link])
			buf.MarkDirty()
			for name, op := range map[string]func() error{
				"probe":  func() error { _, err := ix.ProbeAll(5); return err },
				"insert": func() error { return ix.Insert(5, tid(9999, 0, false)) },
				"remove": func() error { return ix.Remove(5, tid(9999, 1, false)) },
			} {
				if err := op(); !errors.Is(err, page.ErrCorrupt) {
					t.Errorf("%s over a %s-linked chain: %v, want page.ErrCorrupt", name, link, err)
				}
			}
		})
	}
}
