package am

import (
	"math"

	"tdbms/internal/page"
)

// This file splits a walk across goroutines without changing what it
// counts. A part of the walk is walked to its end on some goroutine and
// recorded on a Tape; a Replay then plays the tapes back in the walk's
// order and delivers the blocks Walk would have delivered, to the same
// max, noting every view Walk would have made, in its order, re-views
// included. The one record serves two walks:
//   - a full scan's morsel (Replay.Scan): the recording applies the
//     scan's Ranges and Qual and copies the tuples they keep, and the
//     replay delivers those;
//   - a keyed probe's chain (Replay.Probe): the recording reads each
//     tuple's key and evaluates nothing, so many probes share it, and
//     each replays it for its own key, offering that key's candidates to
//     its block's Ranges and Qual in place on the lent page.

// Parts is a file's walks split into parts. Its pages fall into Units runs
// — a primary page and its overflow chain in a hash or ISAM file, one page
// in a heap — and Walk(v, lo, hi) visits the pages of units lo..hi-1,
// reading through v, in the order the full scan visits them; the walk
// restricts no key, so its View is given no Match (nil). Zero Units means
// the scan cannot be split.
type Parts struct {
	Units int
	Walk  func(v PageViewer, lo, hi int) PageWalk
	// Chains, set on a keyed file, splits its keyed probe into units;
	// such a file's Walk is PrimaryRange.
	Chains Chains
}

// Chains is the part of a keyed probe that depends on its key: the
// probe of key walks the units its Locator locates for key..key in turn
// (ChainWalk), and ends after one once it has passed over a key greater
// than key (an ordered file's Above). A file without a keyed probe has a
// nil Locator.
type Chains struct {
	Key Key
	Locator
}

// Locator locates a keyed probe's units: Locate returns the units
// first..last that can hold the keys lo..hi, reading through v what the
// probe reads to find them, in its order: nothing for a hash bucket, the
// directory for ISAM.
type Locator interface {
	Locate(v Viewer, lo, hi int64) (first, last page.ID, err error)
}

// Tape is the record of one part's walk: each page it viewed, lent, with
// its line count and width. A probe's tape also holds the slot and key of
// every live tuple; a scan's holds the tuples its recording's Ranges and
// Qual kept, copied, and how many candidates each page offered. A walk
// that fails ends the tape on the page where it failed. A tape holds
// pages lent under the relation's latch, so what it records lives no
// longer than that.
type Tape struct {
	pages    []tapePage
	ents     []tapeEnt // a probe's: the live tuples, in walk order
	kept     *Block    // a scan's: the tuples the recording kept, copied
	min, max int64     // the least and greatest key on the tape
	err      error     // the error that ended the walk, at its last page
}

// tapePage is one view of a Tape.
type tapePage struct {
	pg    *page.Page
	id    page.ID
	ents  int32  // a probe's: the page's live tuples start at ents[ents]
	kept  int32  // a scan's: its kept tuples start at kept.Tups[kept]
	nkept uint16 // a scan's: how many it kept
	cands uint16 // a scan's: the candidates it offered, a failing one included
	n     uint16 // line count: a fill that has read slot n-1 has finished the page
	width uint16
	kind  uint8
}

// The kinds of tapePage.
const (
	pageRead    = iota // read to its end
	pageQual           // read, and Qual failed on its last candidate
	pageNarrow         // its tuples are narrower than the key: replayed by fill
	pageBadLine        // its header failed the check a fill makes
	pageFailed         // the view failed, or the walk's Overrun bound ended it here
)

// tapeEnt is one live tuple of a probe's Tape.
type tapeEnt struct {
	key  int32 // a key is at most four bytes wide
	slot uint16
}

// Record walks pw to its end and keeps on t what it saw, replacing what t
// held. With blk it records a scan's part: each live tuple is offered to
// a block with blk's Ranges, Qual and Arena, which copies the ones they
// keep, and a Qual error ends the walk at its tuple. Without, it records
// a probe's chain, reading each live tuple's key and evaluating nothing.
// pw should view through a viewer that counts nothing (a buffer.Run never
// settled): the replays are charged instead. Record reports whether the
// walk ended without an error.
func (t *Tape) Record(pw PageWalk, key Key, blk *Block) bool {
	t.pages, t.ents, t.err = t.pages[:0], t.ents[:0], nil
	t.min, t.max = math.MaxInt64, math.MinInt64
	if blk != nil {
		if t.kept == nil {
			t.kept = new(Block)
		}
		t.kept.Ranges, t.kept.Qual, t.kept.Arena = blk.Ranges, blk.Qual, blk.Arena
		t.kept.Reset()
	}
	for {
		p, id, err := pw.View(nil)
		if p == nil && err == nil {
			return true
		}
		tp := tapePage{pg: p, id: id, ents: int32(len(t.ents)), kind: pageFailed}
		if blk != nil {
			tp.kept = int32(len(t.kept.Tups))
		}
		if err == nil {
			tp.kind = pageRead
			err = t.read(&tp, key, blk != nil)
		}
		t.pages = append(t.pages, tp)
		if err != nil {
			t.err = err
			return false
		}
		pw.Leave(p)
	}
}

// Release lets go of the pages t was lent, keeping its storage for the
// next Record.
func (t *Tape) Release() {
	clear(t.pages)
	t.pages, t.err = t.pages[:0], nil
}

// read records page tp, a scan's when offer is set, and returns the error
// that ends the walk on it.
func (t *Tape) read(tp *tapePage, key Key, offer bool) error {
	p := tp.pg
	if p.Slots() == 0 {
		return nil
	}
	n, width, err := p.Lines()
	if err != nil {
		tp.kind = pageBadLine
		return err
	}
	tp.n, tp.width = uint16(n), uint16(width)
	if offer {
		// Every live tuple is a scan's candidate; the replay finds them
		// again on the lent page only when it stops mid-page.
		base := t.kept.offered
		for s := 0; s < n && err == nil; s++ {
			if tup := p.Tuple(s, width); tup != nil {
				err = t.kept.Offer(page.RID{Page: tp.id, Slot: uint16(s)}, tup)
			}
		}
		tp.cands, tp.nkept = uint16(t.kept.offered-base), uint16(len(t.kept.Tups)-int(tp.kept))
		if err != nil {
			tp.kind = pageQual
		}
		return err
	}
	if width < key.Offset+key.Width {
		tp.kind = pageNarrow
		return nil
	}
	for s := range n {
		if tup := p.Tuple(s, width); tup != nil {
			k := key.Extract(tup)
			t.ents = append(t.ents, tapeEnt{key: int32(k), slot: uint16(s)})
			t.min, t.max = min(t.min, k), max(t.max, k)
		}
	}
	return nil
}

// Noter is what a Replay reads through and charges its views to (a
// buffer.Run): Note counts a view the recording walk made; View makes a
// view that a probe's Locate needs, or one that failed when recorded, so
// it fails the same way.
type Noter interface {
	Viewer
	Note(id page.ID)
}

// Replay is the Iterator that plays tapes back as Walk walks the parts
// they record: the same tuples in the same blocks for the same max, and
// each view Walk would make noted to V in Walk's order, a page fetched
// again after stopping at max mid-page included. It stops where Walk
// stops, with its error: a failed view or a bad page header, at the same
// view; a Qual error, at the same candidate; Overrun, once the walk has
// visited as many pages as the file held when it started; and, in a
// probe, after a unit once it has passed over a key greater than the
// probe's.
type Replay struct {
	V Noter
	// Tape returns the tape of unit u, recording it if need be. The tapes
	// are asked for in the walk's order, and one stays valid until the
	// next is asked for, or, in a probe, until the probe is done.
	Tape func(u int) *Tape

	unit, end int     // Tape(unit) is the next tape; the walk ends before end, -1 until located
	probe     *Chains // a probe's: its units, located on the first NextBlock
	k         int64   // a probe's key
	left      int     // pages the walk may still visit (Overrun)
	t         *Tape
	i         int // t.pages[i] is under the cursor
	slot      int // the slot of page i a fill resumes at
	e         int // a probe's: t.ents[e] is the next of its tuples a fill reads
	c         int // a scan's: the candidates of page i offered so far
	kept      int // a scan's: t.kept.Tups[kept] is the next kept tuple delivered
}

// Scan aims r at a full scan over the tapes of units lo..hi-1, delivering
// the tuples their recordings kept: the Ranges and Qual of the block it
// fills are not applied.
func (r *Replay) Scan(lo, hi int) {
	r.unit, r.end, r.left, r.t, r.probe = lo, hi, r.V.NumPages(), nil, nil
}

// Probe aims r at key's probe over c. The first NextBlock locates its
// units through V, failing with Locate's error; each is a chain whose
// tape was recorded with c.Key.
func (r *Replay) Probe(c *Chains, key int64) {
	r.unit, r.end, r.t, r.probe, r.k = 0, -1, nil, c, key
}

// NextBlock implements Iterator.
func (r *Replay) NextBlock(blk *Block, max int) (bool, error) {
	blk.Reset()
	if max < 1 {
		max = 1
	}
	if r.end < 0 {
		first, last, err := r.probe.Locate(r.V, r.k, r.k)
		if err != nil {
			return false, err
		}
		r.unit, r.end, r.left = int(first), int(last)+1, r.V.NumPages()
		if last < first {
			r.end = r.unit + 1 // the probe walks its first unit whatever its last
		}
	}
	for {
		t := r.t
		if t == nil || r.i == len(t.pages) {
			if r.unit == r.end || t != nil && r.probe != nil && t.max > r.k {
				return false, nil
			}
			r.t = r.Tape(r.unit)
			r.unit, r.i, r.slot, r.e, r.c, r.kept = r.unit+1, 0, 0, 0, 0, 0
			continue
		}
		pg := &t.pages[r.i]
		if r.left <= 0 {
			return false, Overrun(r.V.Name(), pg.id)
		}
		if pg.kind == pageFailed {
			if _, err := r.V.View(pg.id); err != nil {
				return false, err
			}
			return false, t.err
		}
		// Replay Block.fill over the page from where the cursor stands.
		r.V.Note(pg.id)
		var err error
		switch {
		case pg.kind == pageBadLine:
			err = t.err
		case pg.kind == pageNarrow: // only a probe records one
			m := Equal(r.probe.Key, r.k)
			_, err = blk.fill(pg.pg, pg.id, &r.slot, &m, max)
		case r.probe == nil:
			err = r.deliver(blk, pg, max)
		default:
			err = r.offer(blk, pg, max)
		}
		if err != nil {
			return false, err
		}
		// fill stops at max just after a candidate, and has finished the
		// page if that one sits in the last slot.
		if blk.offered >= max && r.slot < int(pg.n) {
			return true, nil // stopped at max; the cursor stays on this page
		}
		r.i, r.slot, r.c, r.left = r.i+1, 0, 0, r.left-1
		if blk.offered > 0 {
			return true, nil
		}
	}
}

// offer replays a probe's fill of page pg: the candidates are the live
// tuples of key k, offered to the block in place on the lent page. A key
// outside the tape's least..greatest key skips the page's entries.
func (r *Replay) offer(blk *Block, pg *tapePage, max int) error {
	t := r.t
	end := len(t.ents)
	if r.i+1 < len(t.pages) {
		end = int(t.pages[r.i+1].ents)
	}
	if r.k < t.min || r.k > t.max {
		r.e = end
	}
	for ; r.e < end && blk.offered < max; r.e++ {
		e := &t.ents[r.e]
		if int64(e.key) != r.k {
			continue
		}
		r.slot = int(e.slot) + 1
		if err := blk.Offer(page.RID{Page: pg.id, Slot: e.slot}, pg.pg.Tuple(int(e.slot), int(pg.width))); err != nil {
			r.e++
			return err
		}
	}
	return nil
}

// deliver replays a scan's fill of page pg: every live tuple is a
// candidate, and the ones the recording kept go into the block. When the
// rest of the page fits, that costs only its kept tuples; a fill that
// stops at max reads the lent page's slots for where its candidates are.
func (r *Replay) deliver(blk *Block, pg *tapePage, max int) error {
	t := r.t
	kend := int(pg.kept) + int(pg.nkept)
	if rest := int(pg.cands) - r.c; rest < max-blk.offered {
		if r.kept < kend {
			blk.Tups = append(blk.Tups, t.kept.Tups[r.kept:kend]...)
			blk.RIDs = append(blk.RIDs, t.kept.RIDs[r.kept:kend]...)
			r.kept = kend
		}
		blk.offered += rest
		r.c = int(pg.cands)
	} else {
		for s := r.slot; s < int(pg.n) && blk.offered < max; s++ {
			if pg.pg.Tuple(s, int(pg.width)) == nil {
				continue
			}
			if r.kept < kend && int(t.kept.RIDs[r.kept].Slot) == s {
				blk.Tups = append(blk.Tups, t.kept.Tups[r.kept])
				blk.RIDs = append(blk.RIDs, t.kept.RIDs[r.kept])
				r.kept++
			}
			blk.offered++
			r.c, r.slot = r.c+1, s+1
		}
	}
	if pg.kind == pageQual && r.c == int(pg.cands) {
		return t.err // the candidate whose Qual failed has been offered
	}
	return nil
}
