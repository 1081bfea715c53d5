package isam

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

// versioned builds an ISAM file of tuples of width bytes over keys
// 0..keys-1, built versions each at the given fillfactor (the version at
// byte 4), then appends four more versions of every key, filling
// overflow chains, and deletes every seventh of those.
func versioned(t *testing.T, width, fillfactor, keys, built int) *File {
	t.Helper()
	tup := func(k, v int) []byte {
		b := mkTuple(width, int32(k))
		binary.LittleEndian.PutUint32(b[4:], uint32(v))
		return b
	}
	var tuples [][]byte
	for k := 0; k < keys; k++ {
		for v := 0; v < built; v++ {
			tuples = append(tuples, tup(k, v))
		}
	}
	f, err := Build(buffer.New("i", storage.NewMem()), width, key4(), fillfactor, tuples)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for v := built; v < built+4; v++ {
		for k := 0; k < keys; k += 1 + k%3 {
			rid, err := f.Insert(tup(k, v))
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

// lastOverflow returns the last page of data page d's overflow chain.
func lastOverflow(t *testing.T, f *File, d page.ID) page.ID {
	t.Helper()
	id := d
	for {
		p, err := f.buf.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Next() == page.Nil {
			return id
		}
		id = p.Next()
	}
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

// geometries are the files the replay tests run on: one directory level,
// whose keys' versions span data pages, and two, where a key at the end
// of a leaf directory page ranges to the last data page.
var geometries = []struct {
	name                          string
	width, fill, keys, built, dir int
}{
	{"one level", 16, 50, 80, 3, 1},
	{"two levels", 256, 100, 300, 2, 2},
}

// spoilers are how the replay tests spoil a file: not at all, with the
// root unreadable, with a data page's overflow chain looped back on
// itself, and with an overflow page's header corrupt.
var spoilers = []string{"clean", "root unreadable", "looped", "bad header"}

// spoiled returns versioned's file of geometry g spoiled by c, flushed,
// and the page whose view fails, or Nil.
func spoiled(t *testing.T, g int, c string) (*File, page.ID) {
	t.Helper()
	gm := geometries[g]
	f := versioned(t, gm.width, gm.fill, gm.keys, gm.built)
	if f.meta.Height != gm.dir {
		t.Fatalf("height %d, want %d", f.meta.Height, gm.dir)
	}
	fail := page.Nil
	switch c {
	case "root unreadable":
		fail = f.meta.Root
	case "looped":
		last := lastOverflow(t, f, 3)
		p, err := f.buf.Fetch(last)
		if err != nil {
			t.Fatal(err)
		}
		p.SetNext(last)
		f.buf.MarkDirty()
	case "bad header":
		p, err := f.buf.Fetch(lastOverflow(t, f, 5))
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(p[4:], 60000) // a line count no page holds
		f.buf.MarkDirty()
	}
	if err := f.buf.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, fail
}

// TestChainsReplayLikeProbe replays recorded data-page chains for every
// key, and keys below, between and above them, at batch sizes that stop a
// probe mid-page, against Probe's own walk. Under one directory page a
// key's versions span data pages, so keys that share a range stop at
// different Above points; under two levels only Above stops a key at the
// end of a leaf directory page. Each geometry runs on each of the
// spoilers. A data page's chain is recorded at most once.
func TestChainsReplayLikeProbe(t *testing.T) {
	for g, gm := range geometries {
		for _, c := range spoilers {
			t.Run(gm.name+"/"+c, func(t *testing.T) {
				f, fail := spoiled(t, g, c)
				keys := []int64{-5, 1 << 40}
				for k := int64(0); k <= int64(gm.keys)+2; k++ {
					keys = append(keys, k)
				}
				walk := func(v am.Viewer, key int64) am.Iterator { return probe(f, v, key) }
				n := amtest.CheckReplay(t, f.Parts(), f.buf, walk, keys, []int{1, 2, 5, 100}, versionBlock, fail)
				if n > f.meta.DataPages {
					t.Fatalf("%d chains recorded over %d data pages", n, f.meta.DataPages)
				}
			})
		}
	}
}

// TestScanReplayLikeScan replays a scan recorded in morsels of one, three
// and seven data pages and of the whole file against the scan's own walk,
// at batch sizes that stop it mid-page, for each geometry and spoiler,
// keeping every tuple and keeping versionBlock's, whose qualification
// fails on key 13's version 5.
func TestScanReplayLikeScan(t *testing.T) {
	for g, gm := range geometries {
		for _, c := range spoilers {
			t.Run(gm.name+"/"+c, func(t *testing.T) {
				f, fail := spoiled(t, g, c)
				parts := f.Parts()
				for _, block := range []func() am.Block{func() am.Block { return am.Block{} }, versionBlock} {
					amtest.CheckScan(t, parts, f.buf, []int{1, 3, 7, parts.Units},
						[]int{1, 2, 3, 7, 100, math.MaxInt}, block, fail)
				}
			})
		}
	}
}

// probe is Probe reading its pages through v.
func probe(f *File, v am.Viewer, key int64) am.Iterator {
	return am.NewWalk(am.NewChainWalk(v, f), am.Equal(f.meta.Key, key))
}
