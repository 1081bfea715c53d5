package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

func key4() am.Key { return am.Key{Offset: 0, Width: 4} }

func mkTuple(width int, key int32) []byte {
	b := make([]byte, width)
	binary.LittleEndian.PutUint32(b, uint32(key))
	return b
}

func build(t *testing.T, width int, keys []int32) *File {
	t.Helper()
	tuples := make([][]byte, len(keys))
	for i, k := range keys {
		tuples[i] = mkTuple(width, k)
	}
	f, err := Build(buffer.New("bt", storage.NewMem()), width, key4(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func collect(t *testing.T, it am.Iterator) []int64 {
	t.Helper()
	var out []int64
	if err := am.Each(it, func(_ page.RID, tup []byte) error {
		out = append(out, key4().Extract(tup))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	f := build(t, 16, nil)
	if got := collect(t, f.Scan()); len(got) != 0 {
		t.Errorf("scan of empty tree: %v", got)
	}
	if got := collect(t, f.Probe(5)); len(got) != 0 {
		t.Errorf("probe of empty tree: %v", got)
	}
	if f.Height() != 0 || f.NumPages() != 1 {
		t.Errorf("empty tree: height %d, pages %d", f.Height(), f.NumPages())
	}
}

func TestScanIsSorted(t *testing.T) {
	keys := make([]int32, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = int32(rng.Intn(500) - 250)
	}
	f := build(t, 116, keys)
	got := collect(t, f.Scan())
	if len(got) != len(keys) {
		t.Fatalf("scan yielded %d of %d", len(got), len(keys))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("scan out of key order")
	}
	if f.Height() < 1 {
		t.Errorf("2000 tuples of width 116 should split; height %d", f.Height())
	}
}

// TestScanSortsEachLeaf covers what TestScanIsSorted cannot: Build inserts
// in key order, so there every leaf's slot order is already its key order.
// Random inserts after Build land in leaves with room, behind larger keys,
// and deletes free slots that later inserts reuse, so the leaves here hold
// out-of-order slots and only the scan's own per-leaf sort puts them back.
func TestScanSortsEachLeaf(t *testing.T) {
	keys := make([]int32, 600)
	for i := range keys {
		keys[i] = int32(i * 4)
	}
	f := build(t, 60, keys)
	rng := rand.New(rand.NewSource(7))
	want := map[int64]int{}
	for _, k := range keys {
		want[int64(k)]++
	}
	var rids []page.RID
	for i := 0; i < 900; i++ {
		k := int32(rng.Intn(2400))
		rid, err := f.Insert(mkTuple(60, k))
		if err != nil {
			t.Fatal(err)
		}
		want[int64(k)]++
		if i%3 == 0 {
			rids = append(rids, rid)
		}
		// Delete an earlier insert now and then, before the next split can
		// move it, so its slot is free for a later key.
		if i%7 == 0 && len(rids) > 0 {
			rid := rids[len(rids)-1]
			rids = rids[:len(rids)-1]
			tup, err := f.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Delete(rid); err != nil {
				t.Fatal(err)
			}
			want[key4().Extract(tup)]--
		}
	}

	unsorted := 0
	id, err := f.descend(-1<<62, true)
	if err != nil {
		t.Fatal(err)
	}
	for id != page.Nil {
		p, err := f.buf.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1 << 62)
		p.Tuples(func(_ int, tup []byte) bool {
			if k := key4().Extract(tup); k < prev {
				unsorted++
			} else {
				prev = k
			}
			return true
		})
		id = p.Next()
	}
	if unsorted == 0 {
		t.Fatal("no leaf holds out-of-order slots; the test proves nothing")
	}

	got := collect(t, f.Scan())
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("scan out of key order (%d out-of-order slots in the leaves)", unsorted)
	}
	for _, k := range got {
		want[k]--
	}
	for k, n := range want {
		if n != 0 {
			t.Errorf("key %d: scan yielded %d too few", k, n)
		}
	}
}

func TestProbeFindsAllDuplicates(t *testing.T) {
	var keys []int32
	for i := int32(0); i < 300; i++ {
		for v := 0; v < int(i%5)+1; v++ {
			keys = append(keys, i)
		}
	}
	f := build(t, 116, keys)
	for i := int32(0); i < 300; i++ {
		want := int(i%5) + 1
		if got := collect(t, f.Probe(int64(i))); len(got) != want {
			t.Fatalf("probe(%d) found %d, want %d", i, len(got), want)
		}
	}
	if got := collect(t, f.Probe(999)); len(got) != 0 {
		t.Errorf("probe of missing key: %v", got)
	}
}

func TestProbeCostIsLogarithmic(t *testing.T) {
	// 4096 distinct 116-byte tuples: leaves split to hold ~4-8 each; a
	// probe should read height + O(1) leaf pages, far below a scan.
	keys := make([]int32, 4096)
	for i := range keys {
		keys[i] = int32(i)
	}
	f := build(t, 116, keys)
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	if got := collect(t, f.Probe(2048)); len(got) != 1 {
		t.Fatalf("probe found %d", len(got))
	}
	reads := f.Buffer().Stats().Reads
	if reads > int64(f.Height())+3 {
		t.Errorf("probe read %d pages with height %d", reads, f.Height())
	}
}

func TestVersionChainProbeDegradation(t *testing.T) {
	// Section 6's caveat: "a large number of versions for some tuples will
	// require more than a bucket for a single key" — probing a key with
	// many versions must still walk all its leaves.
	keys := make([]int32, 1024)
	for i := range keys {
		keys[i] = int32(i)
	}
	f := build(t, 124, keys)
	for v := 0; v < 64; v++ {
		if _, err := f.Insert(mkTuple(124, 500)); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, f.Probe(500))
	if len(got) != 65 {
		t.Fatalf("probe found %d versions, want 65", len(got))
	}
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	collect(t, f.Probe(500))
	reads := f.Buffer().Stats().Reads
	// 65 versions at 8 per leaf: at least 9 leaf pages.
	if reads < 9 {
		t.Errorf("version-chain probe read only %d pages", reads)
	}
}

func TestUpdateDelete(t *testing.T) {
	f := build(t, 16, []int32{1, 2, 3})
	var rid page.RID
	var tup []byte
	if err := am.Each(f.Probe(2), func(r page.RID, b []byte) error {
		rid, tup = r, bytes.Clone(b)
		return am.Stop
	}); err != nil || tup == nil {
		t.Fatal(err)
	}
	tup[8] = 0xEE
	if err := f.Update(rid, tup); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(rid)
	if err != nil || got[8] != 0xEE {
		t.Fatalf("after Update: %v %v", got, err)
	}
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, f.Probe(2)); len(got) != 0 {
		t.Errorf("deleted key still probed: %v", got)
	}
	if got := collect(t, f.Scan()); len(got) != 2 {
		t.Errorf("scan after delete: %v", got)
	}
}

func TestWrongWidthAndNonEmptyBuild(t *testing.T) {
	f := build(t, 16, []int32{1})
	if _, err := f.Insert(make([]byte, 15)); err == nil {
		t.Error("wrong-width insert succeeded")
	}
	if _, err := Build(f.Buffer(), 16, key4(), nil); err == nil {
		t.Error("Build on non-empty file succeeded")
	}
}

func TestRootSplitGrowsHeight(t *testing.T) {
	f := build(t, 16, nil)
	prev := f.Height()
	for i := int32(0); i < 100000 && f.Height() < 2; i++ {
		if _, err := f.Insert(mkTuple(16, i)); err != nil {
			t.Fatal(err)
		}
		if h := f.Height(); h < prev {
			t.Fatalf("height decreased %d -> %d", prev, h)
		} else {
			prev = h
		}
	}
	if f.Height() < 2 {
		t.Fatalf("tree never reached height 2 (height %d, %d pages)", f.Height(), f.NumPages())
	}
	// The tree is still fully consistent.
	got := collect(t, f.Scan())
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("scan out of order after deep growth")
	}
	for _, probe := range []int64{0, 1, int64(len(got) / 2), int64(len(got) - 1)} {
		if len(collect(t, f.Probe(probe))) != 1 {
			t.Errorf("probe(%d) failed after growth", probe)
		}
	}
}

// Property: inserts of a random multiset are all probeable with correct
// multiplicity, and the scan returns the sorted multiset.
func TestInsertProbeProperty(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16%1200) + 1
		bt, err := Build(buffer.New("bt", storage.NewMem()), 32, key4(), nil)
		if err != nil {
			return false
		}
		want := map[int32]int{}
		var all []int64
		for i := 0; i < n; i++ {
			k := int32(rng.Intn(120) - 60)
			want[k]++
			all = append(all, int64(k))
			if _, err := bt.Insert(mkTuple(32, k)); err != nil {
				return false
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var got []int64
		if err := am.Each(bt.Scan(), func(_ page.RID, tup []byte) error {
			got = append(got, key4().Extract(tup))
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			if got[i] != all[i] {
				return false
			}
		}
		for k, c := range want {
			cnt := 0
			if err := am.Each(bt.Probe(int64(k)), func(page.RID, []byte) error {
				cnt++
				return nil
			}); err != nil {
				return false
			}
			if cnt != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRIDValidityAfterInsertOnly(t *testing.T) {
	// RIDs returned by Insert point at the inserted tuple (until the next
	// structure modification).
	f := build(t, 16, nil)
	for i := int32(0); i < 50; i++ {
		rid, err := f.Insert(mkTuple(16, i))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page == page.Nil {
			t.Fatal("nil RID")
		}
		got, err := f.Get(rid)
		if err != nil || key4().Extract(got) != int64(i) {
			t.Fatalf("Get(insert rid) = %v, %v", got, err)
		}
	}
}
