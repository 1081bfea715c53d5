package am

import (
	"math"

	"tdbms/internal/page"
)

// This file splits a full scan across goroutines without changing what it
// counts. Each part of the file is walked to its end on some goroutine and
// recorded on a Tape; one goroutine then plays the tapes back in the
// scan's page order through a Replay, which delivers the blocks Walk
// would have delivered over the whole file, to the same max, and reports
// every view Walk would have made, in its order, re-views included.

// Parts is a full scan split into parts. Its pages fall into Units runs —
// a primary page and its overflow chain in a hash or ISAM file, one page in
// a heap — and Walk(v, lo, hi) visits the pages of units lo..hi-1, reading
// through v, in the order the whole scan visits them. Zero Units means the
// scan cannot be split.
type Parts struct {
	Units int
	Walk  func(v PageViewer, lo, hi int) PageWalk
}

// Tape is the record of one part's walk: each page viewed, how many
// candidates it offered and whether its last candidate sits in its last
// slot, and the tuples Ranges and Qual kept, copied, with their candidate
// ordinals. A walk that fails ends the tape on the page where it failed.
type Tape struct {
	blk   Block
	pages []tapePage
	err   error // the error that ended the walk, at its last page
}

// tapePage is one view of a Tape.
type tapePage struct {
	id    page.ID
	base  int32 // candidates offered on the tape's earlier pages
	cands int32 // candidates the page offered, the failing one included
	kept  int32 // tuples kept on the tape's pages, this one included
	// end: the page's last slot holds its last candidate, so a fill that
	// stops at max just after that candidate has finished the page.
	end bool
	// failed: the view itself failed with err, or, with id Nil, the walk
	// ended at its own Overrun bound before the view.
	failed bool
}

// Record walks pw to its end, offering every candidate of each page it
// views to a block with blk's Ranges, Qual and Arena, and keeps on t what
// the walk saw, replacing what t held. It reports whether the walk ended
// without an error.
func (t *Tape) Record(pw PageWalk, blk *Block) bool {
	t.blk.Ranges, t.blk.Qual, t.blk.Arena = blk.Ranges, blk.Qual, blk.Arena
	t.blk.keepOrds = true
	t.blk.Reset()
	t.pages, t.err = t.pages[:0], nil
	var m Match
	for {
		p, id, err := pw.View(&m)
		if err != nil {
			t.pages = append(t.pages, tapePage{id: id, failed: true})
			t.err = err
			return false
		}
		if p == nil {
			return true
		}
		base, slot := t.blk.offered, 0
		_, err = t.blk.fill(p, id, &slot, &m, math.MaxInt)
		tp := tapePage{id: id, base: int32(base), cands: int32(t.blk.offered - base),
			kept: int32(len(t.blk.Tups))}
		if tp.cands > 0 {
			if n, width, lerr := p.Lines(); lerr == nil {
				tp.end = p.Tuple(n-1, width) != nil
			}
		}
		t.pages = append(t.pages, tp)
		if err != nil {
			t.err = err
			return false
		}
		pw.Leave(p)
	}
}

// Noter is what a Replay charges its views to (a buffer.Run): Note counts
// a view the recording walk made; View makes a view that failed there
// again, so it fails the same way. Name names the file in an Overrun.
type Noter interface {
	Note(id page.ID)
	View(id page.ID) (*page.Page, error)
	Name() string
}

// Replay is the Iterator that plays a split scan's tapes back in the
// scan's page order, exactly as Walk delivers the whole scan: the same
// tuples in the same blocks for the same max, and each view Walk would
// make noted to V in Walk's order, a page it fetches again after stopping
// at max mid-page included. Walk stops at the first error, and so does
// the replay, at the same view: an error of the recording walk, or
// Overrun once the scan has visited Left pages, as PrimaryScan bounds it.
// The tuples it delivers are the ones the recording blocks kept: the
// Ranges and Qual of the block it fills are not applied.
type Replay struct {
	V Noter
	// Next returns the next tape in scan order, nil after the last; a
	// tape is not touched again once the next is asked for.
	Next func() *Tape
	// Left is the pages the scan may still visit: the file's page count
	// when the scan started.
	Left int

	t *Tape
	i int   // t.pages[i] is under the cursor
	c int32 // candidates of page i offered so far
	k int32 // t's kept tuples before k have been delivered
}

// NextBlock implements Iterator.
func (r *Replay) NextBlock(blk *Block, max int) (bool, error) {
	blk.Reset()
	if max < 1 {
		max = 1
	}
	for {
		for r.t == nil || r.i == len(r.t.pages) {
			if r.t = r.Next(); r.t == nil {
				return false, nil
			}
			r.i, r.c, r.k = 0, 0, 0
		}
		t := r.t
		pg := &t.pages[r.i]
		if r.Left <= 0 {
			if pg.failed && pg.id == page.Nil {
				return false, t.err // the recording walk's own Overrun, here
			}
			return false, Overrun(r.V.Name(), pg.id)
		}
		if pg.failed {
			_, err := r.V.View(pg.id)
			return false, err
		}
		r.V.Note(pg.id)
		room := int32(min(max-blk.offered, math.MaxInt32))
		if t.err != nil && r.i == len(t.pages)-1 && pg.cands-1 < r.c+room {
			// The fill reaches the candidate that failed, or, with no
			// candidate offered, the header check that failed.
			return false, t.err
		}
		take := min(room, pg.cands-r.c)
		for ; r.k < pg.kept && t.blk.ords[r.k]-pg.base < r.c+take; r.k++ {
			blk.Tups = append(blk.Tups, t.blk.Tups[r.k])
			blk.RIDs = append(blk.RIDs, t.blk.RIDs[r.k])
		}
		blk.offered += int(take)
		r.c += take
		if take == room && (r.c < pg.cands || !pg.end) {
			return true, nil // stopped at max; the cursor stays on this page
		}
		r.Left--
		r.i, r.c = r.i+1, 0
		if blk.offered > 0 {
			return true, nil
		}
	}
}

// Failed reports whether the walk t recorded ended in an error.
func (t *Tape) Failed() bool { return t.err != nil }
