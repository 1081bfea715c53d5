package core

import (
	"tdbms/internal/am"
	"tdbms/internal/btree"
	"tdbms/internal/buffer"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/isam"
	"tdbms/internal/page"
	"tdbms/internal/twolevel"
)

// source abstracts how a relation's versions are stored and reached: either
// conventionally (one file holding every version — the measured prototype)
// or in the two-level store of Section 6. The query engine plans against
// this interface; the distinction between "current" and "all versions" is
// what lets the two-level store answer static queries at constant cost.
type source interface {
	// ScanAll iterates every version.
	ScanAll() am.Iterator
	// ScanCurrent iterates a superset of the current versions as cheaply as
	// the store allows (conventional stores return everything; the engine
	// still applies the current-version predicates afterwards).
	ScanCurrent() am.Iterator
	// ProbeAll iterates every version with the storage key.
	ProbeAll(key int64) am.Iterator
	// ProbeCurrent is ProbeAll restricted like ScanCurrent.
	ProbeCurrent(key int64) am.Iterator
	// RangeAll iterates every version with lo <= key <= hi.
	RangeAll(lo, hi int64) am.Iterator
	// RangeCurrent is RangeAll restricted like ScanCurrent.
	RangeCurrent(lo, hi int64) am.Iterator
	// Keyed reports whether probes are cheaper than scans.
	Keyed() bool
	// Ordered reports whether range probes are cheaper than scans.
	Ordered() bool
	// Get fetches a current version by RID.
	Get(rid page.RID) ([]byte, error)
	// InsertCurrent stores a new current version.
	InsertCurrent(tup []byte) (page.RID, error)
	// InsertHistory stores a version that is born as history (the temporal
	// delete marker), returning where it lives for index maintenance.
	InsertHistory(tup []byte) (secTID, error)
	// Supersede replaces the current version at rid with its closed form,
	// returning where the closed version now lives.
	Supersede(rid page.RID, closed []byte) (secTID, error)
	// RemoveCurrent deletes a current version outright (static semantics).
	RemoveCurrent(rid page.RID) error
	// UpdateCurrent overwrites a current version in place.
	UpdateCurrent(rid page.RID, tup []byte) error
	// FetchTID resolves a secondary-index tuple id.
	FetchTID(tid secTID) ([]byte, error)
	// Buffers lists the store's buffered files for I/O accounting.
	Buffers() []*buffer.Buffered
	// NumPages is the total store size in pages.
	NumPages() int
	// withAccount returns a view of the same store whose page I/O is
	// charged to a. Views share every page, frame and access-method root
	// with the original, and a write through one is a write to all; only
	// the accounting handle differs.
	withAccount(a *buffer.Stats) source
}

// cloneAMFile rebuilds an access-method view over buf (a handle on the
// same pool). Hash and ISAM files keep their shape in a Meta fixed when
// they are built, and the heap has none, so a fresh view is cheap and
// reads identical pages; a B-tree's root moves, so its views share it.
func cloneAMFile(f am.File, buf *buffer.Buffered) am.File {
	switch g := f.(type) {
	case *heapfile.File:
		return g.WithBuffer(buf)
	case *hashfile.File:
		return hashfile.New(buf, g.Meta())
	case *isam.File:
		return isam.New(buf, g.Meta())
	case *btree.File:
		return g.WithBuffer(buf)
	}
	return f
}

// conventional adapts a single access-method file — the storage of the
// measured prototype, where "all modification operations ... are append
// only" and history accumulates in the overflow chains.
type conventional struct {
	file am.File
	buf  *buffer.Buffered
}

func (c *conventional) ScanAll() am.Iterator               { return c.file.Scan() }
func (c *conventional) ScanCurrent() am.Iterator           { return c.file.Scan() }
func (c *conventional) ProbeAll(key int64) am.Iterator     { return c.file.Probe(key) }
func (c *conventional) ProbeCurrent(key int64) am.Iterator { return c.file.Probe(key) }
func (c *conventional) RangeAll(lo, hi int64) am.Iterator  { return c.file.ProbeRange(lo, hi) }
func (c *conventional) RangeCurrent(lo, hi int64) am.Iterator {
	return c.file.ProbeRange(lo, hi)
}

// splitter is an access method whose walks split into parts a buffer.Run
// can walk (am.Parts): hash, ISAM and heap files.
type splitter interface {
	Parts() am.Parts
}

// parts returns the parts of the store's walks, or zero Units when they
// cannot be split.
func (c *conventional) parts() am.Parts {
	if f, ok := c.file.(splitter); ok {
		return f.Parts()
	}
	return am.Parts{}
}

func (c *conventional) Keyed() bool   { return c.file.Keyed() }
func (c *conventional) Ordered() bool { return c.file.Ordered() }

func (c *conventional) Get(rid page.RID) ([]byte, error) { return c.file.Get(rid) }

func (c *conventional) InsertCurrent(tup []byte) (page.RID, error) { return c.file.Insert(tup) }

func (c *conventional) InsertHistory(tup []byte) (secTID, error) {
	rid, err := c.file.Insert(tup)
	return secTID{rid: rid}, err
}

func (c *conventional) Supersede(rid page.RID, closed []byte) (secTID, error) {
	return secTID{rid: rid}, c.file.Update(rid, closed)
}

func (c *conventional) RemoveCurrent(rid page.RID) error { return c.file.Delete(rid) }

func (c *conventional) UpdateCurrent(rid page.RID, tup []byte) error {
	return c.file.Update(rid, tup)
}

func (c *conventional) FetchTID(tid secTID) ([]byte, error) { return c.file.Get(tid.rid) }

func (c *conventional) Buffers() []*buffer.Buffered { return []*buffer.Buffered{c.buf} }

func (c *conventional) NumPages() int { return c.buf.NumPages() }

func (c *conventional) withAccount(a *buffer.Stats) source {
	buf := c.buf.WithAccount(a)
	return &conventional{file: cloneAMFile(c.file, buf), buf: buf}
}

// twoLevelSource adapts twolevel.Store to the source interface.
type twoLevelSource struct {
	*twolevel.Store
	primaryBuf *buffer.Buffered
	historyBuf *buffer.Buffered
}

func (t *twoLevelSource) InsertHistory(tup []byte) (secTID, error) {
	rid, err := t.Store.InsertHistory(tup)
	return secTID{history: true, rid: rid}, err
}

func (t *twoLevelSource) Supersede(rid page.RID, closed []byte) (secTID, error) {
	newRID, err := t.Store.Supersede(rid, closed)
	return secTID{history: true, rid: newRID}, err
}

func (t *twoLevelSource) FetchTID(tid secTID) ([]byte, error) {
	if tid.history {
		return t.GetHistory(tid.rid)
	}
	return t.Get(tid.rid)
}

func (t *twoLevelSource) Buffers() []*buffer.Buffered {
	return []*buffer.Buffered{t.primaryBuf, t.historyBuf}
}

func (t *twoLevelSource) NumPages() int {
	return t.primaryBuf.NumPages() + t.historyBuf.NumPages()
}

func (t *twoLevelSource) withAccount(a *buffer.Stats) source {
	pbuf := t.primaryBuf.WithAccount(a)
	hbuf := t.historyBuf.WithAccount(a)
	return &twoLevelSource{
		Store:      t.Store.View(cloneAMFile(t.Store.Primary(), pbuf), hbuf),
		primaryBuf: pbuf,
		historyBuf: hbuf,
	}
}

// secTID names a version for secondary indexes: an RID plus which store it
// lives in.
type secTID struct {
	history bool
	rid     page.RID
}
