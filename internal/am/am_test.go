package am

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tdbms/internal/page"
)

func TestKeyExtract(t *testing.T) {
	tup := []byte{0xFF, 0x12, 0x34, 0x80, 0x7F, 0x00}
	cases := []struct {
		k    Key
		want int64
	}{
		{Key{Offset: 0, Width: 1}, -1},
		{Key{Offset: 1, Width: 1}, 0x12},
		{Key{Offset: 1, Width: 2}, 0x3412},
		{Key{Offset: 3, Width: 2}, 0x7F80},
		{Key{Offset: 1, Width: 4}, 0x7F803412},
	}
	for _, c := range cases {
		if got := c.k.Extract(tup); got != c.want {
			t.Errorf("Key%+v.Extract = %#x, want %#x", c.k, got, c.want)
		}
	}
}

func TestKeyExtractSignExtension(t *testing.T) {
	f := func(v int32, off uint8) bool {
		o := int(off % 4)
		tup := make([]byte, 8)
		tup[o] = byte(v)
		tup[o+1] = byte(v >> 8)
		tup[o+2] = byte(v >> 16)
		tup[o+3] = byte(v >> 24)
		return Key{Offset: o, Width: 4}.Extract(tup) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v int16) bool {
		tup := []byte{byte(v), byte(v >> 8)}
		return Key{Offset: 0, Width: 2}.Extract(tup) == int64(v)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyIterator(t *testing.T) {
	blk := Block{RIDs: []page.RID{{}}, Tups: [][]byte{nil}}
	if ok, err := (Empty{}).NextBlock(&blk, 8); ok || err != nil || blk.Len() != 0 {
		t.Errorf("Empty.NextBlock = %v, %v with %d tuples", ok, err, blk.Len())
	}
}

// onePage is the PageWalk over a single page.
type onePage struct {
	p    *page.Page
	left bool
}

func (w *onePage) View(*Match) (*page.Page, page.ID, error) {
	if w.left {
		return nil, page.Nil, nil
	}
	return w.p, 0, nil
}
func (w *onePage) Leave(*page.Page) { w.left = true }

// TestWalkRange pins the range restriction unordered files scan under: a
// walk passes through exactly the tuples whose key falls in [Lo, Hi], an
// inverted range yields nothing, and Each ends early on Stop.
func TestWalkRange(t *testing.T) {
	key := Key{Offset: 0, Width: 4}
	var p page.Page
	p.Format(4, page.KindData)
	for _, k := range []int32{-5, 1, 3, 7, 10, 12} {
		if _, err := p.Insert([]byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)}); err != nil {
			t.Fatal(err)
		}
	}
	it := NewWalk(&onePage{p: &p}, Match{Key: key, Filter: true, Lo: 1, Hi: 10})
	var got []int64
	if err := Each(it, func(_ page.RID, tup []byte) error {
		got = append(got, key.Extract(tup))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Empty bound.
	var blk Block
	it = NewWalk(&onePage{p: &p}, Match{Key: key, Filter: true, Lo: 5, Hi: 4})
	if ok, err := it.NextBlock(&blk, 8); err != nil || blk.Len() != 0 {
		t.Errorf("inverted range yielded %d tuples (%v, %v)", blk.Len(), ok, err)
	}
	// Stop ends the walk after the tuple that returned it.
	n := 0
	it = NewWalk(&onePage{p: &p}, Match{})
	if err := Each(it, func(page.RID, []byte) error {
		if n++; n == 2 {
			return Stop
		}
		return nil
	}); err != nil || n != 2 {
		t.Errorf("Each after Stop: %v, %d tuples seen, want 2", err, n)
	}
}

// TestArenaRecycles pins the arena's contract: copies stay intact while
// later copies start new chunks, Reset makes the next statement reuse the
// same memory instead of allocating, and what Reset keeps is bounded.
func TestArenaRecycles(t *testing.T) {
	var a Arena
	tup := make([]byte, 124)
	var kept [][]byte
	for i := 0; i < 100; i++ { // 12 KiB: several doubling chunks
		tup[0] = byte(i)
		kept = append(kept, a.Copy(tup))
	}
	for i, k := range kept {
		if len(k) != len(tup) || k[0] != byte(i) {
			t.Fatalf("copy %d damaged by later copies: len %d, first byte %d", i, len(k), k[0])
		}
	}
	if grown := append(kept[0], 1); &grown[0] == &kept[0][0] {
		t.Fatal("a copy has spare capacity: appending to it would overwrite its neighbour")
	}

	a.Reset()
	statement := func() {
		for i := 0; i < 100; i++ {
			a.Copy(tup)
		}
		a.Reset()
	}
	if n := testing.AllocsPerRun(10, statement); n != 0 {
		t.Fatalf("a statement the size of the last one allocates %.0f times", n)
	}

	for i := 0; i < 3*arenaKeep/len(tup); i++ {
		a.Copy(tup)
	}
	a.Reset()
	retained := 0
	for _, c := range a.chunks {
		retained += cap(c)
	}
	if retained > arenaKeep {
		t.Fatalf("Reset retained %d bytes, bound %d", retained, arenaKeep)
	}
}

// viewLog is a PageWalk over a list of pages that records each View: the
// page it lent and the max of the NextBlock call that asked for it.
type viewLog struct {
	pages []*page.Page
	cur   int
	max   int // of the NextBlock call in progress
	views [][2]int
}

func (w *viewLog) View(*Match) (*page.Page, page.ID, error) {
	if w.cur >= len(w.pages) {
		return nil, page.Nil, nil
	}
	w.views = append(w.views, [2]int{w.cur, w.max})
	return w.pages[w.cur], page.ID(w.cur), nil
}
func (w *viewLog) Leave(*page.Page) { w.cur++ }

// TestRangesPaceLikeQual pins what Ranges may not change: a walk whose
// ranges reject every tuple fetches exactly the pages, in the same order
// and under the same max, as one whose Qual rejects every tuple — so the
// pages a scan reads do not depend on which of the two rejects — and a
// tuple a range rejects is neither shown to Qual nor copied.
func TestRangesPaceLikeQual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pages []*page.Page
	for range 12 {
		p := new(page.Page)
		p.Format(8, page.KindData)
		n := rng.Intn(page.Capacity(8) + 1)
		for i := 0; i < n; i++ {
			if _, err := p.Insert([]byte{byte(i), 0, 0, 0, 1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 1 + rng.Intn(4) {
			if err := p.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
		pages = append(pages, p)
	}
	walk := func(blk *Block, maxes []int) [][2]int {
		w := &viewLog{pages: pages}
		it := NewWalk(w, Match{})
		for i := 0; ; i++ {
			w.max = maxes[i%len(maxes)]
			ok, err := it.NextBlock(blk, w.max)
			if err != nil {
				t.Fatal(err)
			}
			if blk.Len() != 0 {
				t.Fatalf("a block that rejects every tuple holds %d", blk.Len())
			}
			if !ok {
				return w.views
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		maxes := []int{1 + rng.Intn(3*page.Capacity(8))}
		for i := rng.Intn(6); i > 0; i-- {
			maxes = append(maxes, []int{0, 1, 2, 7, math.MaxInt}[rng.Intn(5)])
		}
		qualled := 0
		ranged := &Block{
			Ranges: []Range{{Key: Key{Offset: 4, Width: 4}, Lo: 0, Hi: 0x04030200}},
			Qual: func(page.RID, []byte) (bool, error) {
				qualled++
				return true, nil
			},
			Arena: new(Arena),
		}
		rejected := &Block{Qual: func(page.RID, []byte) (bool, error) { return false, nil }}
		got, want := walk(ranged, maxes), walk(rejected, maxes)
		if !slices.Equal(got, want) {
			t.Fatalf("maxes %v: a rejecting range views (page, max) %v, a rejecting Qual %v", maxes, got, want)
		}
		if qualled != 0 || len(ranged.Arena.chunks) != 0 {
			t.Fatalf("maxes %v: Qual saw %d tuples a range rejected, and %d arena chunks hold copies",
				maxes, qualled, len(ranged.Arena.chunks))
		}
	}
}
