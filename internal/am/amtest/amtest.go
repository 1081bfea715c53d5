// Package amtest holds the checks the access methods' tests share for a
// walk split into parts (am.Parts) and replayed from tapes (am.Replay): a
// replay, a scan's or a keyed probe's, must deliver, view and fail exactly
// as the method's own walk.
package amtest

import (
	"fmt"
	"testing"

	"tdbms/internal/am"
	"tdbms/internal/page"
)

// viewer reads through a file's viewer, logging each view and note, and
// refuses the view of page fail.
type viewer struct {
	am.Viewer
	fail page.ID
	log  *[]string
}

// View implements am.Viewer.
func (v *viewer) View(id page.ID) (*page.Page, error) {
	v.Note(id)
	if id == v.fail {
		return nil, fmt.Errorf("view of page %d refused", id)
	}
	return v.Viewer.View(id)
}

// ViewAhead implements am.PageViewer: a run reads ahead nothing.
func (v *viewer) ViewAhead(id page.ID, _ int) (*page.Page, error) { return v.View(id) }

// Note implements am.Noter: a replayed view is logged as a view.
func (v *viewer) Note(id page.ID) {
	if v.log != nil {
		*v.log = append(*v.log, fmt.Sprint(id))
	}
}

// CheckReplay requires, for every key of keys and every max of maxes, a
// probe replay over parts.Chains to do what walk(v, key), the method's
// own keyed walk through v, does. The replays of all keys share one tape
// per chain, recorded through file; CheckReplay returns how many it
// recorded.
func CheckReplay(t testing.TB, parts am.Parts, file am.Viewer, walk func(v am.Viewer, key int64) am.Iterator,
	keys []int64, maxes []int, block func() am.Block, fail page.ID) int {
	t.Helper()
	tapes := map[int]*am.Tape{}
	tape := func(h int) *am.Tape {
		if tapes[h] == nil {
			tapes[h] = new(am.Tape)
			tapes[h].Record(parts.Walk(&viewer{Viewer: file, fail: fail}, h, h+1), parts.Chains.Key, nil)
		}
		return tapes[h]
	}
	for _, max := range maxes {
		for _, key := range keys {
			check(t, fmt.Sprintf("key %d, max %d", key, max), file, fail, max, block,
				func(v *viewer) am.Iterator { return walk(v, key) },
				func(v *viewer) am.Iterator {
					r := &am.Replay{V: v, Tape: tape}
					r.Probe(&parts.Chains, key)
					return r
				})
		}
	}
	return len(tapes)
}

// CheckScan requires, for every morsel size of sizes and every max of
// maxes, a scan replay of parts' morsels to do what am.Walk over all the
// parts does. Each morsel is recorded through file onto its own tape with
// the Ranges and Qual of block().
func CheckScan(t testing.TB, parts am.Parts, file am.Viewer, sizes, maxes []int, block func() am.Block, fail page.ID) {
	t.Helper()
	for _, size := range sizes {
		var tapes []*am.Tape
		for lo := 0; lo < parts.Units; lo += size {
			tape, blk := new(am.Tape), block()
			tape.Record(parts.Walk(&viewer{Viewer: file, fail: fail}, lo, min(lo+size, parts.Units)), am.Key{}, &blk)
			tapes = append(tapes, tape)
		}
		for _, max := range maxes {
			check(t, fmt.Sprintf("morsels of %d, max %d", size, max), file, fail, max, block,
				func(v *viewer) am.Iterator { return am.NewWalk(parts.Walk(v, 0, parts.Units), am.Match{}) },
				func(v *viewer) am.Iterator {
					r := &am.Replay{V: v, Tape: func(u int) *am.Tape { return tapes[u] }}
					r.Scan(0, len(tapes))
					return r
				})
		}
	}
}

// check requires replay, reading through a logging viewer on file, to do
// what walk does through another: the same blocks from each NextBlock
// into block(), the same error at the same call, and the same views in
// the same order, the view of page fail refused.
func check(t testing.TB, what string, file am.Viewer, fail page.ID, max int, block func() am.Block,
	walk, replay func(v *viewer) am.Iterator) {
	t.Helper()
	var wantLog, gotLog []string
	want := drain(walk(&viewer{Viewer: file, fail: fail, log: &wantLog}), block(), max)
	got := drain(replay(&viewer{Viewer: file, fail: fail, log: &gotLog}), block(), max)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: replay delivered\n%v\nwant\n%v", what, got, want)
	}
	if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Fatalf("%s: replay viewed\n%v\nwant\n%v", what, gotLog, wantLog)
	}
}

// drain runs it to its end, or to its error, and renders each NextBlock.
func drain(it am.Iterator, blk am.Block, max int) []string {
	var out []string
	for range 1 << 16 {
		ok, err := it.NextBlock(&blk, max)
		out = append(out, fmt.Sprintf("%v %v %v %x", ok, err, blk.RIDs, blk.Tups))
		if !ok || err != nil {
			return out
		}
	}
	return append(out, "does not end")
}
