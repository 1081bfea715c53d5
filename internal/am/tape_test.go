package am_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/am/amtest"
	"tdbms/internal/buffer"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// TestReplayDeliversTheWalk records a heap's scan in morsels of one, three
// and seven pages and of the whole file, and replays them against the
// heap's own walk at batch sizes from one candidate to every one: with
// every tuple kept, with a range and a qualification, with a page
// unreadable, and with the qualification failing on the first, a middle
// and the last candidate of the second three-page morsel.
func TestReplayDeliversTheWalk(t *testing.T) {
	buf := buffer.New("r", storage.NewMem())
	f := heapfile.New(buf, 16)
	for k := 0; k < 1000; k++ {
		tup := make([]byte, 16)
		binary.LittleEndian.PutUint32(tup, uint32(k))
		rid, err := f.Insert(tup)
		if err != nil {
			t.Fatal(err)
		}
		if k%5 == 0 || k%56 == 55 { // dead slots, some last on their page
			if err := f.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	parts := f.Parts()
	if parts.Units < 9 {
		t.Fatalf("%d pages, want three morsels of three at least", parts.Units)
	}
	errQual := errors.New("qual fails")
	// failOn fails the qualification on the i-th live tuple of page id,
	// counted from the end when i is negative.
	failOn := func(id page.ID, i int) func() am.Block {
		p, err := buf.View(id)
		if err != nil {
			t.Fatal(err)
		}
		var live []uint16
		p.Tuples(func(s int, _ []byte) bool { live = append(live, uint16(s)); return true })
		slot := live[(i+len(live))%len(live)]
		return func() am.Block {
			return am.Block{Qual: func(rid page.RID, _ []byte) (bool, error) {
				if rid == (page.RID{Page: id, Slot: slot}) {
					return false, errQual
				}
				return rid.Slot%3 != 0, nil
			}}
		}
	}
	for _, c := range []struct {
		name  string
		block func() am.Block
		fail  page.ID
	}{
		{"all", func() am.Block { return am.Block{} }, page.Nil},
		{"range and qual", func() am.Block {
			return am.Block{Ranges: []am.Range{{Key: am.Key{Width: 4}, Lo: 100, Hi: 700}},
				Qual: func(rid page.RID, _ []byte) (bool, error) { return rid.Slot%4 != 1, nil }}
		}, page.Nil},
		{"unreadable", func() am.Block { return am.Block{} }, 4},
		{"qual fails first", failOn(3, 0), page.Nil},
		{"qual fails middle", failOn(4, 20), page.Nil},
		{"qual fails last", failOn(5, -1), page.Nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			amtest.CheckScan(t, parts, buf, []int{1, 3, 7, parts.Units},
				[]int{1, 2, 3, 7, 100, math.MaxInt}, c.block, c.fail)
		})
	}
}

// memFile is a file of pages in memory, read as a buffer reads it.
type memFile []*page.Page

func (f memFile) View(id page.ID) (*page.Page, error) {
	if id < 0 || int(id) >= len(f) {
		return nil, fmt.Errorf("page %d beyond the file", id)
	}
	return f[id], nil
}
func (f memFile) ViewAhead(id page.ID, _ int) (*page.Page, error) { return f.View(id) }
func (f memFile) NumPages() int                                   { return len(f) }
func (f memFile) Name() string                                    { return "fuzz" }

// locateFunc is a function as an am.Locator.
type locateFunc func(v am.Viewer, lo, hi int64) (page.ID, page.ID, error)

func (f locateFunc) Locate(v am.Viewer, lo, hi int64) (page.ID, page.ID, error) { return f(v, lo, hi) }

// FuzzReplay builds a small file of primary pages and overflow chains
// from the input — dead slots, pages narrower than the key, a corrupt
// line count, a looped chain, an unreadable page — and requires a probe
// replay for a drawn key and a scan replay in morsels of a drawn size,
// each at a drawn batch size and with a drawn range and a qualification
// that may fail, to match am.Walk block by block and view by view.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 1, 5, 2, 3, 1, 2, 7, 0, 9, 2, 1, 4, 6, 3, 5, 1, 1, 2, 8, 3, 4, 5, 6, 7, 1, 2})
	f.Add([]byte{2, 2, 8, 0, 1, 17, 4, 2, 2, 3, 3, 6, 5, 1, 0, 0, 3, 1, 2, 9, 13, 13, 4, 0, 1, 2, 3})
	f.Add([]byte{1, 4, 5, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0, 8, 8, 8, 0, 2, 1, 0, 6, 2, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		units := 1 + next()%4
		file := make(memFile, units+next()%5)
		tails := make([]page.ID, units)
		for i := range file {
			p := new(page.Page)
			file[i] = p
			if next()%8 == 7 { // a page narrower than the key, its slot dead
				p.Format(2, page.KindData)
				if _, err := p.Insert([]byte{1, 2}); err != nil {
					t.Fatal(err)
				}
				if err := p.Delete(0); err != nil {
					t.Fatal(err)
				}
			} else {
				p.Format(8, page.KindData)
				for range next() % 12 {
					tup := make([]byte, 8)
					binary.LittleEndian.PutUint32(tup, uint32(next()%8))
					binary.LittleEndian.PutUint32(tup[4:], uint32(next()%16))
					s, err := p.Insert(tup)
					if err != nil {
						t.Fatal(err)
					}
					if next()%4 == 0 {
						if err := p.Delete(s); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if next()%16 == 15 {
				binary.LittleEndian.PutUint16(p[4:], 60000) // a line count no page holds
			}
			p.SetNext(page.Nil)
			if i < units {
				tails[i] = page.ID(i)
			} else { // an overflow page, at the end of some unit's chain
				u := next() % units
				file[tails[u]].SetNext(page.ID(i))
				tails[u] = page.ID(i)
			}
		}
		if next()%4 == 3 { // a chain that loops
			file[tails[next()%units]].SetNext(page.ID(next() % len(file)))
		}
		fail := page.Nil
		if next()%4 == 3 {
			fail = page.ID(next() % len(file))
		}
		key := am.Key{Width: 4}
		k := int64(next()%10) - 1
		span := next() % units
		locate := locateFunc(func(_ am.Viewer, k, _ int64) (page.ID, page.ID, error) {
			if k == 8 {
				return 0, 0, errors.New("no directory for key 8")
			}
			first := int(k+int64(units)) % units
			return page.ID(first), page.ID(min(first+span, units-1)), nil
		})
		parts := am.Parts{Units: units, Walk: am.PrimaryRange, Chains: am.Chains{Key: key, Locator: locate}}
		max := []int{1, 2, 3, 5, math.MaxInt}[next()%5]
		lo := int64(next() % 16)
		hi, failing := lo+int64(next()%16), next()%3 == 0
		block := func() am.Block {
			return am.Block{Ranges: []am.Range{{Key: am.Key{Offset: 4, Width: 4}, Lo: lo, Hi: hi}},
				Qual: func(rid page.RID, tup []byte) (bool, error) {
					if failing && binary.LittleEndian.Uint32(tup[4:]) == uint32(hi) {
						return false, errors.New("qual fails")
					}
					return rid.Slot%2 == 0, nil
				}}
		}
		walk := func(v am.Viewer, k int64) am.Iterator {
			return am.NewWalk(am.NewChainWalk(v, locate), am.Equal(key, k))
		}
		amtest.CheckReplay(t, parts, file, walk, []int64{k}, []int{max}, block, fail)
		amtest.CheckScan(t, parts, file, []int{1 + next()%units}, []int{max}, block, fail)
	})
}
