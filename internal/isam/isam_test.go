package isam

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

const (
	versionedWidth = 116
	temporalWidth  = 124
	nTuples        = 1024
)

func key4() am.Key { return am.Key{Offset: 0, Width: 4} }

func mkTuple(width int, key int32) []byte {
	b := make([]byte, width)
	binary.LittleEndian.PutUint32(b, uint32(key))
	return b
}

// keysOf drains an iterator and returns the keys it yielded, in order.
func keysOf(it am.Iterator) ([]int64, error) {
	var keys []int64
	err := am.Each(it, func(_ page.RID, tup []byte) error {
		keys = append(keys, key4().Extract(tup))
		return nil
	})
	return keys, err
}

func mustKeys(t *testing.T, it am.Iterator) []int64 {
	t.Helper()
	keys, err := keysOf(it)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func seqTuples(width, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = mkTuple(width, int32(i+1))
	}
	return out
}

func build(t *testing.T, width, fillfactor, n int) *File {
	t.Helper()
	buf := buffer.New("i", storage.NewMem())
	f, err := Build(buf, width, key4(), fillfactor, seqTuples(width, n))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFanout(t *testing.T) {
	// 6-byte entries in 1010 usable bytes: fanout 168, which is what puts
	// 128 data pages under a single directory page (paper Figure 5/7).
	if Fanout != 168 {
		t.Errorf("Fanout = %d, want 168", Fanout)
	}
}

func TestGeometryMatchesPaper(t *testing.T) {
	// 100% loading: 128 data pages + 1 directory page = 129; height 1.
	f := build(t, versionedWidth, 100, nTuples)
	if f.meta.DataPages != 128 {
		t.Errorf("data pages (100%%) = %d, want 128", f.meta.DataPages)
	}
	if f.NumPages() != 129 {
		t.Errorf("file size (100%%) = %d, want 129", f.NumPages())
	}
	if f.meta.Height != 1 {
		t.Errorf("height (100%%) = %d, want 1", f.meta.Height)
	}

	// 50% loading: 256 data pages + 2 leaf directory pages + root = 259;
	// height 2 (probe cost 3 in Figure 7).
	g := build(t, versionedWidth, 50, nTuples)
	if g.meta.DataPages != 256 {
		t.Errorf("data pages (50%%) = %d, want 256", g.meta.DataPages)
	}
	if g.NumPages() != 259 {
		t.Errorf("file size (50%%) = %d, want 259", g.NumPages())
	}
	if g.meta.Height != 2 {
		t.Errorf("height (50%%) = %d, want 2", g.meta.Height)
	}

	// Static relation: 9 tuples/page at 100% -> 114 data + 1 dir = 115.
	s := build(t, 108, 100, nTuples)
	if s.NumPages() != 115 {
		t.Errorf("static file size = %d, want 115", s.NumPages())
	}
}

func TestProbeCostMatchesPaper(t *testing.T) {
	// Q02 at update count 0 costs 2 pages at 100% loading, 3 at 50%
	// (Figure 7): directory height + one data page.
	for _, tc := range []struct {
		ff, want int
	}{{100, 2}, {50, 3}} {
		f := build(t, versionedWidth, tc.ff, nTuples)
		f.Buffer().Invalidate()
		f.Buffer().ResetStats()
		n := len(mustKeys(t, f.Probe(500)))
		if n != 1 {
			t.Fatalf("ff=%d: probe found %d tuples, want 1", tc.ff, n)
		}
		if got := int(f.Buffer().Stats().Reads); got != tc.want {
			t.Errorf("ff=%d: probe read %d pages, want %d", tc.ff, got, tc.want)
		}
	}
}

func TestScanSkipsDirectory(t *testing.T) {
	// Q04 at update count 0 reads 128 pages while the file has 129
	// (Figure 7): the scan touches data pages only.
	f := build(t, versionedWidth, 100, nTuples)
	f.Buffer().Invalidate()
	f.Buffer().ResetStats()
	if n := len(mustKeys(t, f.Scan())); n != nTuples {
		t.Fatalf("scan yielded %d tuples", n)
	}
	if got := int(f.Buffer().Stats().Reads); got != 128 {
		t.Errorf("scan read %d pages, want 128", got)
	}
}

func TestScanYieldsKeyOrder(t *testing.T) {
	f := build(t, versionedWidth, 50, nTuples)
	prev := int64(-1 << 62)
	for _, k := range mustKeys(t, f.Scan()) {
		if k < prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev = k
	}
}

func TestInsertGoesToCoveringPage(t *testing.T) {
	f := build(t, versionedWidth, 100, nTuples)
	// Page covering key 500 is full (8 tuples at 100%): a new version
	// chains an overflow page onto that data page.
	before := f.NumPages()
	rid, err := f.Insert(mkTuple(versionedWidth, 500))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != before+1 {
		t.Errorf("pages %d -> %d, want +1 overflow", before, f.NumPages())
	}
	// Probe must see both versions.
	if n := len(mustKeys(t, f.Probe(500))); n != 2 {
		t.Errorf("probe found %d versions, want 2", n)
	}
	_ = rid
}

func TestSizeAtUC14MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// Figure 5: ISAM temporal relation at 100% loading reaches 3713 pages
	// at update count 14 (two new versions per tuple per update).
	f := build(t, temporalWidth, 100, nTuples)
	for round := 0; round < 14; round++ {
		for id := int32(1); id <= nTuples; id++ {
			f.Insert(mkTuple(temporalWidth, id))
			f.Insert(mkTuple(temporalWidth, id))
		}
	}
	if got := f.NumPages(); got != 3713 {
		t.Errorf("temporal ISAM at UC 14 = %d pages, want 3713", got)
	}

	// Rollback at 50%: one new version per tuple per update -> 2051 pages.
	g := build(t, versionedWidth, 50, nTuples)
	for round := 0; round < 14; round++ {
		for id := int32(1); id <= nTuples; id++ {
			g.Insert(mkTuple(versionedWidth, id))
		}
	}
	if got := g.NumPages(); got != 2051 {
		t.Errorf("rollback ISAM 50%% at UC 14 = %d pages, want 2051", got)
	}
}

func TestProbeBelowMinimumKey(t *testing.T) {
	f := build(t, versionedWidth, 100, nTuples)
	if len(mustKeys(t, f.Probe(-5))) != 0 {
		t.Error("found tuple for key below minimum")
	}
}

func TestEmptyBuild(t *testing.T) {
	buf := buffer.New("i", storage.NewMem())
	f, err := Build(buf, 16, key4(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One empty data page plus a root.
	if f.NumPages() != 2 {
		t.Errorf("empty ISAM = %d pages, want 2", f.NumPages())
	}
	if _, err := f.Insert(mkTuple(16, 9)); err != nil {
		t.Fatal(err)
	}
	if len(mustKeys(t, f.Probe(9))) != 1 {
		t.Error("probe after insert into empty-built file failed")
	}
}

func TestGetUpdateDelete(t *testing.T) {
	f := build(t, versionedWidth, 100, 16)
	var rid page.RID
	var tup []byte
	if err := am.Each(f.Probe(7), func(r page.RID, b []byte) error {
		rid, tup = r, bytes.Clone(b)
		return am.Stop
	}); err != nil || tup == nil {
		t.Fatalf("probe: found=%v err=%v", tup != nil, err)
	}
	tup[10] = 0x77
	if err := f.Update(rid, tup); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got[10] != 0x77 {
		t.Error("Update not visible via Get")
	}
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if len(mustKeys(t, f.Probe(7))) != 0 {
		t.Error("deleted tuple still probed")
	}
}

// Property: build from random keys, then every key probes to exactly its
// multiplicity and the scan is sorted.
func TestBuildProbeProperty(t *testing.T) {
	f := func(seed int64, n16 uint16, ffPick bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16 % 600)
		ff := 100
		if ffPick {
			ff = 50
		}
		tuples := make([][]byte, n)
		want := map[int32]int{}
		for i := range tuples {
			k := int32(rng.Intn(200) - 100)
			tuples[i] = mkTuple(12, k)
			want[k]++
		}
		buf := buffer.New("i", storage.NewMem())
		isf, err := Build(buf, 12, key4(), ff, tuples)
		if err != nil {
			return false
		}
		for k, c := range want {
			got, err := keysOf(isf.Probe(int64(k)))
			if err != nil || len(got) != c {
				return false
			}
			for _, g := range got {
				if g != int64(k) {
					return false
				}
			}
		}
		keys, err := keysOf(isf.Scan())
		return err == nil && len(keys) == n && sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
