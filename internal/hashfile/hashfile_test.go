package hashfile

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// count drains an iterator and reports how many tuples it yielded.
func count(it am.Iterator) (int, error) {
	n := 0
	err := am.Each(it, func(page.RID, []byte) error { n++; return nil })
	return n, err
}

// Benchmark geometry from the paper (Section 5.1 / Figure 5).
const (
	versionedWidth = 116 // rollback/historical tuple
	temporalWidth  = 124 // temporal tuple
	nTuples        = 1024
)

func key4() am.Key { return am.Key{Offset: 0, Width: 4} }

func mkTuple(width int, key int32) []byte {
	b := make([]byte, width)
	binary.LittleEndian.PutUint32(b, uint32(key))
	return b
}

func build(t *testing.T, width, fillfactor int) *File {
	t.Helper()
	buf := buffer.New("h", storage.NewMem())
	f, err := Build(buf, Meta{
		Width:   width,
		Key:     key4(),
		Primary: PrimaryPages(nTuples, width, fillfactor),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func loadSequential(t *testing.T, f *File) {
	t.Helper()
	for id := int32(1); id <= nTuples; id++ {
		if _, err := f.Insert(mkTuple(f.meta.Width, id)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrimaryPagesMatchPaper(t *testing.T) {
	// Figure 5: versioned hashed relations occupy 129 pages at 100% loading
	// and 257 at 50%, for 1024 tuples of 8 per page.
	if got := PrimaryPages(nTuples, versionedWidth, 100); got != 129 {
		t.Errorf("primary pages (100%%) = %d, want 129", got)
	}
	if got := PrimaryPages(nTuples, versionedWidth, 50); got != 257 {
		t.Errorf("primary pages (50%%) = %d, want 257", got)
	}
	if got := PrimaryPages(nTuples, temporalWidth, 100); got != 129 {
		t.Errorf("temporal primary pages (100%%) = %d, want 129", got)
	}
}

func TestInitialLoadHasNoOverflow(t *testing.T) {
	// With sequential ids and mod hashing, the initial 1024 tuples fit in
	// the primary pages exactly (buckets hold 7 or 8 tuples each).
	f := build(t, versionedWidth, 100)
	loadSequential(t, f)
	if got := f.NumPages(); got != 129 {
		t.Errorf("pages after load = %d, want 129 (no overflow)", got)
	}
}

func TestProbeFindsAllVersions(t *testing.T) {
	f := build(t, versionedWidth, 100)
	loadSequential(t, f)
	// Insert 3 extra versions of key 500.
	for i := 0; i < 3; i++ {
		if _, err := f.Insert(mkTuple(versionedWidth, 500)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := am.Each(f.Probe(500), func(_ page.RID, tup []byte) error {
		if got := f.meta.Key.Extract(tup); got != 500 {
			t.Fatalf("probe yielded key %d", got)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("probe found %d versions, want 4", n)
	}
}

func TestProbeMissingKeyReadsOneChain(t *testing.T) {
	f := build(t, versionedWidth, 100)
	loadSequential(t, f)
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	// 999999 hashes somewhere; no matching tuples.
	if n, err := count(f.Probe(999999)); err != nil || n != 0 {
		t.Fatalf("probe of missing key: %d tuples, err=%v", n, err)
	}
	if got := f.Buffer().Stats().Reads; got != 1 {
		t.Errorf("missing-key probe read %d pages, want 1", got)
	}
}

func TestScanVisitsEveryTupleOnce(t *testing.T) {
	f := build(t, versionedWidth, 50)
	loadSequential(t, f)
	seen := map[int32]int{}
	if err := am.Each(f.Scan(), func(_ page.RID, tup []byte) error {
		seen[int32(f.meta.Key.Extract(tup))]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != nTuples {
		t.Fatalf("scan saw %d distinct keys, want %d", len(seen), nTuples)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d seen %d times", k, c)
		}
	}
}

func TestScanCostEqualsFileSize(t *testing.T) {
	// Section 5.3: a sequential scan reads every page of the file.
	f := build(t, temporalWidth, 100)
	loadSequential(t, f)
	// Two update rounds: each adds 2 versions per tuple (temporal replace).
	for round := 0; round < 2; round++ {
		for id := int32(1); id <= nTuples; id++ {
			f.Insert(mkTuple(temporalWidth, id))
			f.Insert(mkTuple(temporalWidth, id))
		}
	}
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	if _, err := count(f.Scan()); err != nil {
		t.Fatal(err)
	}
	if got, want := int(f.Buffer().Stats().Reads), f.NumPages(); got != want {
		t.Errorf("scan read %d pages, file has %d", got, want)
	}
}

func TestChainGrowthMatchesPaperUC14(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// Figure 5: the hashed temporal relation reaches exactly 3717 pages at
	// update count 14 (129 primary; buckets of 8 grow 2 pages per update,
	// buckets of 7 grow 1.75 pages per update).
	f := build(t, temporalWidth, 100)
	loadSequential(t, f)
	for round := 0; round < 14; round++ {
		for id := int32(1); id <= nTuples; id++ {
			f.Insert(mkTuple(temporalWidth, id))
			f.Insert(mkTuple(temporalWidth, id))
		}
	}
	if got := f.NumPages(); got != 3717 {
		t.Errorf("temporal hashed file at UC 14 = %d pages, want 3717", got)
	}

	// Rollback: one new version per update; Figure 5 reports 1927 pages.
	g := build(t, versionedWidth, 100)
	loadSequential(t, g)
	for round := 0; round < 14; round++ {
		for id := int32(1); id <= nTuples; id++ {
			g.Insert(mkTuple(versionedWidth, id))
		}
	}
	if got := g.NumPages(); got != 1927 {
		t.Errorf("rollback hashed file at UC 14 = %d pages, want 1927", got)
	}
}

func TestGetUpdateDelete(t *testing.T) {
	f := build(t, versionedWidth, 100)
	rid, err := f.Insert(mkTuple(versionedWidth, 42))
	if err != nil {
		t.Fatal(err)
	}
	tup, err := f.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if f.meta.Key.Extract(tup) != 42 {
		t.Fatalf("Get returned key %d", f.meta.Key.Extract(tup))
	}
	tup[8] = 0xAA
	if err := f.Update(rid, tup); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Get(rid)
	if got[8] != 0xAA {
		t.Error("Update did not persist")
	}
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(rid); err == nil {
		t.Error("Get after Delete succeeded")
	}
}

func TestNegativeKeysHashToValidBuckets(t *testing.T) {
	f := build(t, versionedWidth, 100)
	rid, err := f.Insert(mkTuple(versionedWidth, -17))
	if err != nil {
		t.Fatal(err)
	}
	if !rid.Valid() {
		t.Fatal("invalid RID")
	}
	if n, err := count(f.Probe(-17)); err != nil || n != 1 {
		t.Fatalf("probe of negative key: %d tuples, err=%v", n, err)
	}
}

func TestBuildRequiresEmptyFile(t *testing.T) {
	buf := buffer.New("h", storage.NewMem())
	if _, err := Build(buf, Meta{Width: 8, Key: key4(), Primary: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(buf, Meta{Width: 8, Key: key4(), Primary: 2}); err == nil {
		t.Error("Build on non-empty file succeeded")
	}
}

// Property: after inserting an arbitrary multiset of keys, probing any key
// yields exactly its multiplicity, and a scan yields the whole multiset.
func TestInsertProbeProperty(t *testing.T) {
	f := func(seed int64, n8 uint8, primary8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)
		primary := int(primary8%13) + 1
		buf := buffer.New("h", storage.NewMem())
		hf, err := Build(buf, Meta{Width: 12, Key: key4(), Primary: primary})
		if err != nil {
			return false
		}
		want := map[int32]int{}
		for i := 0; i < n; i++ {
			k := int32(rng.Intn(40) - 20)
			want[k]++
			if _, err := hf.Insert(mkTuple(12, k)); err != nil {
				return false
			}
		}
		for k, c := range want {
			if got, err := count(hf.Probe(int64(k))); err != nil || got != c {
				return false
			}
		}
		total, err := count(hf.Scan())
		return err == nil && total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBucketDistribution(t *testing.T) {
	f := build(t, versionedWidth, 100)
	// 1024 sequential ids over 129 buckets: 121 buckets of 8, 8 buckets of 7.
	counts := map[page.ID]int{}
	for id := int64(1); id <= nTuples; id++ {
		counts[f.Bucket(id)]++
	}
	n8, n7 := 0, 0
	for _, c := range counts {
		switch c {
		case 8:
			n8++
		case 7:
			n7++
		default:
			t.Fatalf("bucket with %d tuples", c)
		}
	}
	if n8 != 121 || n7 != 8 {
		t.Errorf("distribution: %d buckets of 8, %d of 7; want 121, 8", n8, n7)
	}
}

// TestBlockTuplesAreCopies pins the contract the copy-free read path must
// keep: the iterator qualifies tuples in place, on the store's own page, but
// what the block hands out are copies. The test keeps a chain's block tuples,
// then overwrites every one of them in the file and flushes — which stores
// into the very memory the iterator was reading — and finds the kept bytes
// unchanged. In-place qualification is checked from the other side: Qual
// must see the page's memory, not a copy, or the read path is copying again.
func TestBlockTuplesAreCopies(t *testing.T) {
	mem := storage.NewMem()
	f, err := Build(buffer.New("h", mem), Meta{Width: temporalWidth, Key: key4(), Primary: 3})
	if err != nil {
		t.Fatal(err)
	}
	const key, versions = 4, 20 // three pages of one bucket's chain
	for v := 0; v < versions; v++ {
		tup := mkTuple(temporalWidth, key)
		tup[8] = byte(v)
		if _, err := f.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Buffer().Flush(); err != nil {
		t.Fatal(err)
	}

	inPlace := 0
	var blk am.Block
	blk.Qual = func(rid page.RID, tup []byte) (bool, error) {
		pg, err := mem.Lend(rid.Page)
		if err != nil {
			return false, err
		}
		if stored, _ := pg.Get(int(rid.Slot)); &stored[0] == &tup[0] {
			inPlace++
		}
		return tup[8]%2 == 0, nil // keep the even versions
	}
	var kept, want [][]byte
	var rids []page.RID
	it := f.Probe(key)
	for {
		ok, err := it.NextBlock(&blk, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i, tup := range blk.Tups {
			kept = append(kept, tup)
			want = append(want, append([]byte(nil), tup...))
			rids = append(rids, blk.RIDs[i])
		}
	}
	if len(kept) != versions/2 {
		t.Fatalf("kept %d tuples, want %d", len(kept), versions/2)
	}
	if inPlace != versions {
		t.Fatalf("Qual saw the page in place for %d of %d candidates", inPlace, versions)
	}

	for _, rid := range rids {
		tup := mkTuple(temporalWidth, key)
		tup[8] = 0xEE
		if err := f.Update(rid, tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Buffer().Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if string(kept[i]) != string(want[i]) {
			t.Fatalf("kept tuple %d changed under a later write: version byte %#x, was %#x", i, kept[i][8], want[i][8])
		}
	}
}
