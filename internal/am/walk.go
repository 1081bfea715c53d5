package am

import (
	"fmt"

	"tdbms/internal/page"
)

// Match is the key restriction an iterator applies to a page in place.
// The zero value accepts every live tuple.
type Match struct {
	Key Key
	// Filter restricts to Lo <= key <= Hi.
	Filter bool
	Lo, Hi int64
	// Above is set once a key greater than Hi has been passed over; an
	// ordered file's range probe ends its walk on it.
	Above bool
}

// Equal returns the restriction key == k.
func Equal(key Key, k int64) Match { return Match{Key: key, Filter: true, Lo: k, Hi: k} }

// PageWalk is the part of a page-at-a-time iterator that differs between
// access methods: which pages to visit, in what order. Walk supplies the
// rest — the block protocol over the pages it is shown.
type PageWalk interface {
	// View fetches the page under the cursor, read-only, first moving the
	// cursor on if the last page was left behind. It returns the page and
	// its id, or a nil page when there is nothing more to visit. m is the
	// walk's key restriction, for ordered files that end on m.Above.
	View(m *Match) (*page.Page, page.ID, error)
	// Leave moves the cursor off page p, onto its overflow successor if it
	// has one.
	Leave(p *page.Page)
}

// Walk is the Iterator over a PageWalk. It fetches the page under the
// cursor once per call and reads it in place, so a scan moves the buffer
// counters the same way whichever access method it runs on: once per page
// (or per max candidates).
type Walk struct {
	pw   PageWalk
	m    Match
	slot int
}

// NewWalk iterates the tuples m accepts on the pages pw visits.
func NewWalk(pw PageWalk, m Match) *Walk { return &Walk{pw: pw, m: m} }

// Reset aims w at the pages pw visits and the tuples m accepts, as NewWalk
// would, so a caller that walks many times reuses one Walk.
func (w *Walk) Reset(pw PageWalk, m Match) { *w = Walk{pw: pw, m: m} }

// NextBlock implements Iterator.
func (w *Walk) NextBlock(blk *Block, max int) (bool, error) {
	blk.Reset()
	if max < 1 {
		max = 1
	}
	for {
		p, id, err := w.pw.View(&w.m)
		if p == nil || err != nil {
			return false, err
		}
		done, err := blk.fill(p, id, &w.slot, &w.m, max)
		if err != nil {
			return false, err
		}
		if !done {
			return true, nil // stopped at max; the cursor stays on this page
		}
		w.pw.Leave(p)
		w.slot = 0
		if blk.offered > 0 {
			return true, nil
		}
	}
}

// Overrun is the error of a walk that would visit page id of file after
// visiting as many pages as the file held when the walk started. A
// well-formed walk visits each page at most once, so such a walk follows a
// link that loops — from a torn write or a flipped byte — and ends with
// this error instead of spinning under the relation latch.
func Overrun(file string, id page.ID) error {
	return fmt.Errorf("%s: page %d: walk visits more pages than the file holds: %w", file, id, page.ErrCorrupt)
}

// Viewer is the read-only side of a buffered file, as a keyed walk reads
// it: the file's buffer (buffer.Buffered), or a run on it (buffer.Run),
// whose views are charged later. NumPages bounds the walk and Name names
// the file in its Overrun.
type Viewer interface {
	View(id page.ID) (*page.Page, error)
	NumPages() int
	Name() string
}

// PageViewer is the read-only side of a buffered file, as a sequential
// walk reads it: ViewAhead(id, ahead) fetches page id, telling the pool
// that ahead more pages of the walk's run follow it. The pool decides how
// many of them to read in the same operation (buffer.Buffered.ViewAhead).
// NumPages bounds the walk and Name names the file in its Overrun.
type PageViewer interface {
	ViewAhead(id page.ID, ahead int) (*page.Page, error)
	NumPages() int
	Name() string
}

// PrimaryScan is the PageWalk of a full scan over a file laid out as hash
// and ISAM files are: pages 0..primaries-1 are primary pages, each heading
// an overflow chain, and the scan visits each primary page followed by its
// chain. Only the primary pages are contiguous — overflow pages are chained
// anywhere past them — so the run a fetch announces is confined to the
// primary region.
type PrimaryScan struct {
	buf       PageViewer
	primaries int
	left      int // pages the scan may still visit (Overrun)

	primary int     // pages below this have been started
	cur     page.ID // page under the cursor, when chained
	chained bool    // cur is valid: the scan is inside a chain
}

// NewPrimaryScan scans buf's first primaries pages and their chains.
func NewPrimaryScan(buf PageViewer, primaries int) *PrimaryScan {
	return &PrimaryScan{buf: buf, primaries: primaries, left: buf.NumPages()}
}

// PrimaryRange is the part of a primary scan over primary pages lo..hi-1
// and their chains, visited as the whole scan visits them (Parts.Walk).
func PrimaryRange(buf PageViewer, lo, hi int) PageWalk {
	return &PrimaryScan{buf: buf, primary: lo, primaries: hi, left: buf.NumPages()}
}

// View implements PageWalk.
func (w *PrimaryScan) View(*Match) (*page.Page, page.ID, error) {
	if !w.chained {
		if w.primary >= w.primaries {
			return nil, page.Nil, nil
		}
		w.cur, w.chained = page.ID(w.primary), true
		w.primary++
	}
	if w.left <= 0 {
		return nil, page.Nil, Overrun(w.buf.Name(), w.cur)
	}
	p, err := w.buf.ViewAhead(w.cur, w.primaries-int(w.cur)-1)
	return p, w.cur, err
}

// Leave implements PageWalk.
func (w *PrimaryScan) Leave(p *page.Page) {
	w.cur, w.left = p.Next(), w.left-1
	w.chained = w.cur != page.Nil
}
