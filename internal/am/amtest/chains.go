// Package amtest holds the check the access methods' tests share for a
// keyed probe split into chains (am.Chains): a replay of recorded chains
// must deliver, view and fail exactly as the method's own keyed walk.
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

// Note implements am.ChainViewer: a replayed view is logged as a view.
func (v *viewer) Note(id page.ID) {
	if v.log != nil {
		*v.log = append(*v.log, fmt.Sprint(id))
	}
}

// CheckReplay requires, for every key of keys and every max of maxes, a
// ChainReplay over c to do what walk(v, key), the method's own keyed walk
// through v, does: the same blocks from each NextBlock into block(), the
// same error at the same call, and the same views in the same order, the
// view of page fail refused. The replays of all keys share one tape per
// chain, recorded through file; CheckReplay returns how many it recorded.
func CheckReplay(t testing.TB, c am.Chains, file am.Viewer, walk func(v am.Viewer, key int64) am.Iterator,
	keys []int64, maxes []int, block func() am.Block, fail page.ID) int {
	t.Helper()
	tapes := map[page.ID]*am.ChainTape{}
	tape := func(head page.ID) *am.ChainTape {
		if tapes[head] == nil {
			tapes[head] = new(am.ChainTape)
			tapes[head].Record(&viewer{Viewer: file, fail: fail}, head, c.Key)
		}
		return tapes[head]
	}
	for _, max := range maxes {
		for _, key := range keys {
			var wantLog, gotLog []string
			want := drain(walk(&viewer{Viewer: file, fail: fail, log: &wantLog}, key), block(), max)
			r := am.ChainReplay{V: &viewer{Viewer: file, fail: fail, log: &gotLog}, C: &c, Tape: tape}
			r.Reset(key)
			got := drain(&r, block(), max)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("key %d, max %d: replay delivered\n%v\nwant\n%v", key, max, got, want)
			}
			if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
				t.Fatalf("key %d, max %d: replay viewed\n%v\nwant\n%v", key, max, gotLog, wantLog)
			}
		}
	}
	return len(tapes)
}

// drain runs it to its end, or to its error, and renders each NextBlock.
func drain(it am.Iterator, blk am.Block, max int) []string {
	var out []string
	for range 1 << 16 {
		ok, err := it.NextBlock(&blk, max)
		out = append(out, fmt.Sprintf("%v %v %v %d", ok, err, blk.RIDs, len(blk.Tups)))
		if !ok || err != nil {
			return out
		}
	}
	return append(out, "does not end")
}
