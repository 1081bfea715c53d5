package am

import (
	"math"
	"unsafe"

	"tdbms/internal/page"
)

// This file shares the chain walks of keyed probes. A hash or ISAM probe
// of key is two parts: finding the chains that can hold key (a hash
// bucket, or an ISAM directory descent to a range of data pages), and
// walking them. The walk visits the same pages whatever the key; only
// which of their tuples are candidates, and where the probe stops, depend
// on it. So a chain that many probes reach is walked once, onto a
// ChainTape, and each probe replays the tape for its own key through a
// ChainReplay, which delivers what Walk with Equal(key) delivers and
// reports every view that walk makes, in its order.

// Chains is a keyed probe split into its key's part and its chains. The
// chains are headed by pages 0..Heads-1, each followed by its overflow
// pages. The probe of key walks the chains headed by first..last in turn,
// as Locate returns them, and ends after a chain once it has passed over
// a key greater than key (an ordered file's Above).
type Chains struct {
	Key   Key
	Heads int
	// Locate returns the first and last chain heads of key's probe,
	// reading through v what the probe reads to find them, in its order:
	// nothing for a hash bucket, the directory for ISAM.
	Locate func(v Viewer, key int64) (first, last page.ID, err error)
}

// ChainTape is the record of one chain's walk: each page it viewed, lent,
// with its line count, and the slot and key of every live tuple on it. A
// walk that fails ends the tape on the page where it failed. A tape holds
// pages lent under the relation's latch, so it lives no longer than that.
type ChainTape struct {
	pages []chainPage
	ents  []chainEnt // the live tuples, in walk order
	min   int64      // the least key on the chain
	max   int64      // the greatest key on the chain
	err   error      // the error that ended the walk, at its last page
}

// chainPage is one view of a ChainTape.
type chainPage struct {
	pg    *page.Page
	id    page.ID
	ents  int32 // the page's live tuples start at ents[ents]
	n     int32 // line count: a fill that has read slot n-1 has finished the page
	width int32
	kind  uint8
}

// The kinds of chainPage.
const (
	pageRead    = iota // read: its live tuples are on the tape
	pageNarrow         // its tuples are narrower than the key: replayed by fill
	pageBadLine        // its header failed the check a fill makes
	pageFailed         // the view failed
	pageOverrun        // the walk's Overrun bound ended it before this view
)

// chainEnt is one live tuple of a ChainTape.
type chainEnt struct {
	key  int32 // a key is at most four bytes wide
	slot uint16
}

// Record walks the chain headed by head through v, as a probe's walk
// visits it, and keeps on t what it saw, replacing what t held. It reads
// every live tuple's key and evaluates nothing else. v should count
// nothing (a buffer.Run never settled): the replays are charged instead.
func (t *ChainTape) Record(v Viewer, head page.ID, key Key) {
	t.pages, t.ents, t.err = t.pages[:0], t.ents[:0], nil
	t.min, t.max = math.MaxInt64, math.MinInt64
	left := v.NumPages()
	for id := head; id != page.Nil; left-- {
		if left <= 0 {
			t.end(id, pageOverrun, Overrun(v.Name(), id))
			return
		}
		p, err := v.View(id)
		if err != nil {
			t.end(id, pageFailed, err)
			return
		}
		cp := chainPage{pg: p, id: id, ents: int32(len(t.ents))}
		if p.Slots() > 0 {
			n, width, err := p.Lines()
			if err != nil {
				cp.kind = pageBadLine
				t.pages, t.err = append(t.pages, cp), err
				return
			}
			cp.n, cp.width = int32(n), int32(width)
			if width < key.Offset+key.Width {
				cp.kind = pageNarrow
			} else {
				for s := range n {
					if tup := p.Tuple(s, width); tup != nil {
						k := key.Extract(tup)
						t.ents = append(t.ents, chainEnt{key: int32(k), slot: uint16(s)})
						t.min, t.max = min(t.min, k), max(t.max, k)
					}
				}
			}
		}
		t.pages = append(t.pages, cp)
		id = p.Next()
	}
}

// end ends t's walk at page id with err.
func (t *ChainTape) end(id page.ID, kind uint8, err error) {
	t.pages = append(t.pages, chainPage{id: id, ents: int32(len(t.ents)), kind: kind})
	t.err = err
}

// TapeArena backs the tapes one goroutine keeps: chunks that the copies
// of many tapes fill in turn, so keeping a tape rarely allocates.
type TapeArena struct {
	tapes []ChainTape
	pages []chainPage
	ents  []chainEnt
}

// Keep returns a copy of t in a that shares nothing with t but the lent
// pages.
func (a *TapeArena) Keep(t *ChainTape) *ChainTape {
	if len(a.tapes) == cap(a.tapes) {
		a.tapes = make([]ChainTape, 0, 256)
	}
	a.tapes = append(a.tapes, ChainTape{pages: carve(&a.pages, t.pages), ents: carve(&a.ents, t.ents),
		min: t.min, max: t.max, err: t.err})
	return &a.tapes[len(a.tapes)-1]
}

// carve copies src to the end of *chunk, starting a chunk when it has no
// room, and returns the copy.
func carve[T any](chunk *[]T, src []T) []T {
	if cap(*chunk)-len(*chunk) < len(src) {
		*chunk = make([]T, 0, max(len(src), 1<<16/int(unsafe.Sizeof(src[0]))))
	}
	n := len(*chunk)
	*chunk = append(*chunk, src...)
	return (*chunk)[n:len(*chunk):len(*chunk)]
}

// ChainViewer is what a ChainReplay reads through and charges its views
// to (a buffer.Run): Note counts a view the recording walk made; View makes
// a view that Locate needs, or one that failed when recorded, so it fails
// the same way.
type ChainViewer interface {
	Viewer
	Note(id page.ID)
}

// ChainReplay is the Iterator of one keyed probe over recorded chains.
// It delivers exactly what Walk with Equal(key) delivers over the probe's
// pages: the same tuples in the same blocks for the same max, offered to
// the block's Ranges and Qual, which see only key's candidates, in place
// on the lent page. It charges V every view that walk makes, in its order:
// Locate's views as they are made, each chain page noted, a page fetched
// again after stopping at max mid-page noted again. It stops where the
// walk stops, with its error: a failed view or a bad page header, at the
// same view; a Qual error, at the same candidate; Overrun, once the probe
// has visited as many pages as the file held when it started; and, past a
// chain's end, at a key greater than key.
type ChainReplay struct {
	V ChainViewer
	C *Chains
	// Tape returns the tape of the chain headed by head, recording it if
	// need be; it stays valid until the probe is done.
	Tape func(head page.ID) *ChainTape

	key        int64
	none       bool // no tuple of the chain under the cursor has key
	started    bool
	head, last page.ID
	left       int  // pages the probe may still visit (Overrun)
	above      bool // a key greater than key has been passed over
	t          *ChainTape
	i          int // t.pages[i] is under the cursor
	e          int // t.ents[e] is the next of its tuples a fill reads
	slot       int // the slot of page i a fill resumes at
}

// Reset aims r at key's probe.
func (r *ChainReplay) Reset(key int64) {
	r.key, r.started, r.t = key, false, nil
}

// NextBlock implements Iterator.
func (r *ChainReplay) NextBlock(blk *Block, max int) (bool, error) {
	blk.Reset()
	if max < 1 {
		max = 1
	}
	if !r.started {
		first, last, err := r.C.Locate(r.V, r.key)
		if err != nil {
			return false, err
		}
		r.started, r.head, r.last = true, first, last
		r.left, r.above = r.V.NumPages(), false
		r.enter()
	}
	for {
		t := r.t
		if r.i == len(t.pages) {
			r.above = r.above || t.max > r.key
			if r.above || r.head >= r.last {
				return false, nil
			}
			r.head++
			r.enter()
			continue
		}
		pg := &t.pages[r.i]
		if r.left <= 0 || pg.kind == pageOverrun {
			return false, Overrun(r.V.Name(), pg.id)
		}
		if pg.kind == pageFailed {
			if _, err := r.V.View(pg.id); err != nil {
				return false, err
			}
			return false, t.err
		}
		r.V.Note(pg.id)
		var done bool
		switch pg.kind {
		case pageBadLine:
			return false, t.err
		case pageNarrow:
			m := Equal(r.C.Key, r.key)
			m.Above = r.above
			var err error
			done, err = blk.fill(pg.pg, pg.id, &r.slot, &m, max)
			r.above = m.Above
			if err != nil {
				return false, err
			}
		default:
			// fill's loop over the page's tuples: it stops at max just
			// after a candidate, and has finished the page if that one
			// sits in the last slot.
			end := len(t.ents)
			if r.i+1 < len(t.pages) {
				end = int(t.pages[r.i+1].ents)
			}
			if r.none {
				r.e = end
			}
			for ; r.e < end && blk.offered < max; r.e++ {
				if e := &t.ents[r.e]; int64(e.key) == r.key {
					r.slot = int(e.slot) + 1
					tup := pg.pg.Tuple(int(e.slot), int(pg.width))
					if err := blk.Offer(page.RID{Page: pg.id, Slot: e.slot}, tup); err != nil {
						r.e++
						return false, err
					}
				}
			}
			done = blk.offered < max || r.slot >= int(pg.n)
		}
		if !done {
			return true, nil // stopped at max; the cursor stays on this page
		}
		r.i, r.slot, r.left = r.i+1, 0, r.left-1
		if blk.offered > 0 {
			return true, nil
		}
	}
}

// enter moves the cursor onto the chain headed by r.head.
func (r *ChainReplay) enter() {
	r.t = r.Tape(r.head)
	r.i, r.e, r.slot = 0, 0, 0
	r.none = r.key < r.t.min || r.key > r.t.max
}
