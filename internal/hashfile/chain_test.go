package hashfile

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/am/amtest"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// versioned is a hash file over three buckets of keys 0..39, ten versions
// each (the version at byte 4), every seventh tuple deleted: chains of
// three pages, live and dead slots mixed, each key's versions on several
// pages of its chain.
func versioned(t *testing.T) *File {
	t.Helper()
	f, err := Build(buffer.New("h", storage.NewMem()), Meta{Width: 16, Key: key4(), Primary: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for v := 0; v < 10; v++ {
		for k := int32(0); k < 40; k++ {
			tup := mkTuple(16, k)
			binary.LittleEndian.PutUint32(tup[4:], uint32(v))
			rid, err := f.Insert(tup)
			if err != nil {
				t.Fatal(err)
			}
			if n++; n%7 == 0 {
				if err := f.Delete(rid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return f
}

// chainOf returns the pages of bucket b's chain.
func chainOf(t *testing.T, f *File, b page.ID) []page.ID {
	t.Helper()
	var ids []page.ID
	for id := b; id != page.Nil; {
		ids = append(ids, id)
		p, err := f.buf.View(id)
		if err != nil {
			t.Fatal(err)
		}
		id = p.Next()
	}
	return ids
}

// errQual is the qualification's error on key 13's version 5.
var errQual = errors.New("qual fails on key 13 version 5")

// versionBlock keeps versions 1..8 and, of those, the ones not a multiple
// of three, and fails on key 13's version 5.
func versionBlock() am.Block {
	return am.Block{
		Ranges: []am.Range{{Key: am.Key{Offset: 4, Width: 4}, Lo: 1, Hi: 8}},
		Qual: func(_ page.RID, tup []byte) (bool, error) {
			v := binary.LittleEndian.Uint32(tup[4:])
			if binary.LittleEndian.Uint32(tup) == 13 && v == 5 {
				return false, errQual
			}
			return v%3 != 0, nil
		},
	}
}

// spoilers are the files the replay tests run on: a clean one, one with
// a chain's overflow page unreadable, one with a page's header corrupt,
// one with a chain looped back on itself, and one with a chain ending in
// a page of tuples narrower than the key whose slots are dead. Each
// returns the page whose view fails, or Nil.
var spoilers = []struct {
	name  string
	spoil func(t *testing.T, f *File) page.ID
}{
	{"clean", func(*testing.T, *File) page.ID { return page.Nil }},
	{"unreadable", func(t *testing.T, f *File) page.ID { return chainOf(t, f, 1)[1] }},
	{"bad header", func(t *testing.T, f *File) page.ID {
		p, err := f.buf.Fetch(chainOf(t, f, 2)[1])
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(p[4:], 60000) // a line count no page holds
		f.buf.MarkDirty()
		return page.Nil
	}},
	{"looped", func(t *testing.T, f *File) page.ID {
		ids := chainOf(t, f, 0)
		p, err := f.buf.Fetch(ids[len(ids)-1])
		if err != nil {
			t.Fatal(err)
		}
		p.SetNext(ids[1])
		f.buf.MarkDirty()
		return page.Nil
	}},
	{"narrow", func(t *testing.T, f *File) page.ID {
		ids := chainOf(t, f, 1)
		id, np, err := f.buf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		np.Format(2, page.KindData)
		if _, err := np.Insert([]byte{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := np.Delete(0); err != nil {
			t.Fatal(err)
		}
		p, err := f.buf.Fetch(ids[len(ids)-1])
		if err != nil {
			t.Fatal(err)
		}
		p.SetNext(id)
		f.buf.MarkDirty()
		return page.Nil
	}},
}

// spoiled returns versioned's file spoiled by spoil, flushed, and the
// page whose view fails.
func spoiled(t *testing.T, spoil func(t *testing.T, f *File) page.ID) (*File, page.ID) {
	t.Helper()
	f := versioned(t)
	fail := spoil(t, f)
	if err := f.buf.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, fail
}

// TestChainsReplayLikeProbe replays recorded bucket chains for keys
// present, absent, negative and wider than four bytes, at batch sizes that
// stop a probe mid-page, against Probe's own walk, on each of the
// spoilers. Each chain is recorded once for all keys.
func TestChainsReplayLikeProbe(t *testing.T) {
	keys := []int64{-1, 0, 1, 2, 13, 14, 27, 39, 40, 41, 1 << 40, -1 << 40}
	maxes := []int{1, 2, 3, 7, 100}
	for _, c := range spoilers {
		t.Run(c.name, func(t *testing.T) {
			f, fail := spoiled(t, c.spoil)
			walk := func(v am.Viewer, key int64) am.Iterator { return probe(f, v, key) }
			if n := amtest.CheckReplay(t, f.Parts(), f.buf, walk, keys, maxes, versionBlock, fail); n != 3 {
				t.Fatalf("%d chains recorded, want one per bucket, 3", n)
			}
		})
	}
}

// TestScanReplayLikeScan replays a scan recorded in morsels of one, two
// and three buckets against the scan's own walk, at batch sizes that stop
// it mid-page, on each of the spoilers, keeping every tuple and keeping
// versionBlock's, whose qualification fails inside bucket 1.
func TestScanReplayLikeScan(t *testing.T) {
	for _, c := range spoilers {
		t.Run(c.name, func(t *testing.T) {
			f, fail := spoiled(t, c.spoil)
			for _, block := range []func() am.Block{func() am.Block { return am.Block{} }, versionBlock} {
				amtest.CheckScan(t, f.Parts(), f.buf, []int{1, 2, 3}, []int{1, 2, 3, 7, 100, math.MaxInt}, block, fail)
			}
		})
	}
}

// probe is Probe reading its pages through v.
func probe(f *File, v am.Viewer, key int64) am.Iterator {
	return am.NewWalk(am.NewChainWalk(v, f), am.Equal(f.meta.Key, key))
}
