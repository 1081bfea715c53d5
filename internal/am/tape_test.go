package am_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/heapfile"
	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// noteLog is a Replay's Noter that records the views noted to it.
type noteLog struct {
	buf   *buffer.Buffered
	views []page.ID
}

func (n *noteLog) Note(id page.ID)                     { n.views = append(n.views, id) }
func (n *noteLog) View(id page.ID) (*page.Page, error) { return n.buf.View(id) }
func (n *noteLog) Name() string                        { return n.buf.Name() }
func (n *noteLog) ViewAhead(id page.ID, _ int) (*page.Page, error) {
	n.views = append(n.views, id)
	return n.buf.View(id)
}
func (n *noteLog) NumPages() int { return n.buf.NumPages() }

// TestReplayDeliversTheWalk records a heap's scan in parts of 3 pages and
// replays the tapes asking for every candidate at once: the tuples and the
// views must be those of the heap's own walk.
func TestReplayDeliversTheWalk(t *testing.T) {
	buf := buffer.New("r", storage.NewMem())
	f := heapfile.New(buf, 16)
	for k := 0; k < 500; k++ {
		tup := make([]byte, 16)
		binary.LittleEndian.PutUint32(tup, uint32(k))
		if _, err := f.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	// each drains it asking for every candidate at once, as am.Each does;
	// a Replay delivers the tuples its recording kept, so the block has
	// no Qual.
	each := func(it am.Iterator) string {
		var keys []uint32
		var blk am.Block
		for {
			ok, err := it.NextBlock(&blk, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return fmt.Sprint(keys)
			}
			for _, tup := range blk.Tups {
				keys = append(keys, binary.LittleEndian.Uint32(tup))
			}
		}
	}
	parts := f.ScanParts()
	want := each(f.Scan())
	walk := &noteLog{buf: buf} // the views of the whole scan as one part
	if got := each(am.NewWalk(parts.Walk(walk, 0, parts.Units), am.Match{})); got != want {
		t.Fatalf("one part delivered\n%s\nwant\n%s", got, want)
	}

	rec := &noteLog{buf: buf}
	var tapes []*am.Tape
	for lo := 0; lo < parts.Units; lo += 3 {
		tape := new(am.Tape)
		if !tape.Record(parts.Walk(rec, lo, min(lo+3, parts.Units)), &am.Block{}) {
			t.Fatal("recording failed")
		}
		tapes = append(tapes, tape)
	}
	replayed := &noteLog{buf: buf}
	r := &am.Replay{V: replayed, Left: buf.NumPages(), Next: func() *am.Tape {
		if len(tapes) == 0 {
			return nil
		}
		tape := tapes[0]
		tapes = tapes[1:]
		return tape
	}}
	if got := each(r); got != want {
		t.Fatalf("replay delivered\n%s\nwant\n%s", got, want)
	}
	if fmt.Sprint(replayed.views) != fmt.Sprint(walk.views) || len(walk.views) != parts.Units {
		t.Fatalf("replay noted %v, the walk viewed %v", replayed.views, walk.views)
	}
}
