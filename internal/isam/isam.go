// Package isam implements Ingres's ISAM access method: data pages sorted by
// key at `modify` time, a static multi-level directory above them, and an
// overflow chain per data page for tuples added afterwards.
//
// Directory entries are 6 bytes (4-byte key + 2-byte child page), giving a
// fanout of 168 — the geometry behind the paper's figures: 128 data pages
// fit under a single directory page at 100% loading (probe cost 2), while
// 256 data pages at 50% loading need two directory levels (probe cost 3).
// A sequential scan touches data and overflow pages only, never the
// directory, so Q04's cost at update count 0 is 128, one page less than the
// file size (Figure 7).
package isam

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
)

// entrySize is the byte width of one directory entry.
const entrySize = 6

// Fanout is the number of directory entries per page.
const Fanout = (page.Size - page.HeaderSize) / entrySize

// Meta describes an ISAM file's fixed parameters; the catalog persists it.
type Meta struct {
	Width     int     // tuple width in bytes
	Key       am.Key  // key location within the tuple
	DataPages int     // number of primary data pages (0..DataPages-1)
	Root      page.ID // root directory page
	Height    int     // number of directory levels above the data pages
}

// DataPageCount computes the data page count chosen by modify for ntuples
// at the given fillfactor percentage.
func DataPageCount(ntuples, width, fillfactor int) int {
	perPage := page.Capacity(width) * fillfactor / 100
	if perPage < 1 {
		perPage = 1
	}
	return (ntuples + perPage - 1) / perPage
}

// File is an ISAM file over a buffered paged file.
type File struct {
	buf  *buffer.Buffered
	meta Meta
}

// Build sorts tuples by key and writes an ISAM file: data pages first at
// the occupancy implied by fillfactor, then the directory levels bottom-up,
// root last. The buffered file must be empty. Build copies the tuple slice
// headers but sorts in place.
func Build(buf *buffer.Buffered, width int, key am.Key, fillfactor int, tuples [][]byte) (*File, error) {
	if buf.NumPages() != 0 {
		return nil, fmt.Errorf("isam: build requires an empty file, have %d pages", buf.NumPages())
	}
	perPage := page.Capacity(width) * fillfactor / 100
	if perPage < 1 {
		perPage = 1
	}
	sort.SliceStable(tuples, func(i, j int) bool {
		return key.Extract(tuples[i]) < key.Extract(tuples[j])
	})

	// Data pages.
	type ent struct {
		key   int64
		child page.ID
	}
	var level []ent
	i := 0
	for i < len(tuples) {
		id, p, err := buf.Allocate()
		if err != nil {
			return nil, err
		}
		p.Format(width, page.KindData)
		first := key.Extract(tuples[i])
		for n := 0; n < perPage && i < len(tuples); n++ {
			if _, err := p.Insert(tuples[i]); err != nil {
				return nil, err
			}
			i++
		}
		level = append(level, ent{key: first, child: id})
	}
	if len(level) == 0 {
		// An empty relation still needs one data page and a root.
		id, p, err := buf.Allocate()
		if err != nil {
			return nil, err
		}
		p.Format(width, page.KindData)
		level = append(level, ent{key: 0, child: id})
	}
	dataPages := len(level)

	// Directory levels, bottom-up; the loop always runs at least once so
	// even a single data page gets a root directory page.
	height := 0
	for {
		var next []ent
		for lo := 0; lo < len(level); lo += Fanout {
			hi := lo + Fanout
			if hi > len(level) {
				hi = len(level)
			}
			id, p, err := buf.Allocate()
			if err != nil {
				return nil, err
			}
			p.Format(entrySize, page.KindDirectory)
			for j := lo; j < hi; j++ {
				writeEntry(p, j-lo, level[j].key, level[j].child)
			}
			p.SetAux(hi - lo)
			next = append(next, ent{key: level[lo].key, child: id})
		}
		height++
		level = next
		if len(level) == 1 {
			break
		}
	}
	if err := buf.Flush(); err != nil {
		return nil, err
	}
	meta := Meta{Width: width, Key: key, DataPages: dataPages, Root: level[0].child, Height: height}
	return &File{buf: buf, meta: meta}, nil
}

// New opens an existing ISAM file described by meta.
func New(buf *buffer.Buffered, meta Meta) *File {
	return &File{buf: buf, meta: meta}
}

func writeEntry(p *page.Page, i int, key int64, child page.ID) {
	off := page.HeaderSize + i*entrySize
	binary.LittleEndian.PutUint32(p[off:], uint32(int32(key)))
	binary.LittleEndian.PutUint16(p[off+4:], uint16(child))
}

func readEntry(p *page.Page, i int) (int64, page.ID) {
	off := page.HeaderSize + i*entrySize
	k := int64(int32(binary.LittleEndian.Uint32(p[off:])))
	c := page.ID(binary.LittleEndian.Uint16(p[off+4:]))
	return k, c
}

// Buffer exposes the underlying buffered file.
func (f *File) Buffer() *buffer.Buffered { return f.buf }

// Meta returns the file's parameters.
func (f *File) Meta() Meta { return f.meta }

// NumPages reports the file size in pages (data + directory + overflow).
func (f *File) NumPages() int { return f.buf.NumPages() }

// Keyed implements am.File.
func (f *File) Keyed() bool { return true }

// locate walks the directory from the root to the data page whose key range
// contains key (the last page whose low key is <= key). Inserts land here.
// Each directory page read goes through the single buffer frame, so
// interleaved probes re-read the root — the "fixed cost" of Figure 9.
func (f *File) locate(key int64) (page.ID, error) {
	cur := f.meta.Root
	for lvl := 0; lvl < f.meta.Height; lvl++ {
		p, err := f.buf.View(cur)
		if err != nil {
			return page.Nil, err
		}
		n := p.Aux()
		idx := sort.Search(n, func(i int) bool {
			k, _ := readEntry(p, i)
			return k > key
		}) - 1
		if idx < 0 {
			idx = 0
		}
		_, cur = readEntry(p, idx)
	}
	return cur, nil
}

// probeRange computes the contiguous range of candidate data pages for a
// key range [lo, hi], reading the directory through v. start is the
// leftmost page that can contain lo — duplicates of a page's low key may
// have been built onto the preceding page, the classic ISAM equal-key
// adjustment. stop is the last page whose low key is <= hi; when that
// bound reaches the end of the leaf directory page, stop is the last data
// page instead, and the walk ends where it sees a key greater than hi.
func probeRange[V am.Viewer](f *File, v V, lo, hi int64) (start, stop page.ID, err error) {
	cur := f.meta.Root
	var p *page.Page
	for lvl := 0; lvl < f.meta.Height; lvl++ {
		p, err = v.View(cur)
		if err != nil {
			return 0, 0, err
		}
		n := p.Aux()
		// Descend toward the leftmost candidate at every level.
		idx := sort.Search(n, func(i int) bool {
			k, _ := readEntry(p, i)
			return k >= lo
		}) - 1
		if idx < 0 {
			idx = 0
		}
		if lvl == f.meta.Height-1 {
			_, start = readEntry(p, idx)
			last := sort.Search(n, func(i int) bool {
				k, _ := readEntry(p, i)
				return k > hi
			})
			if last == n {
				return start, page.ID(f.meta.DataPages - 1), nil
			}
			if last > 0 {
				last--
			}
			_, stop = readEntry(p, last)
			return start, stop, nil
		}
		_, cur = readEntry(p, idx)
	}
	// Height is always >= 1 (Build creates at least a root), so the loop
	// returns from the leaf level.
	return 0, 0, fmt.Errorf("isam: empty directory")
}

// Insert implements am.File: the tuple goes to the data page covering its
// key, or to that page's overflow chain, as hashfile.File.Insert does.
func (f *File) Insert(tup []byte) (page.RID, error) {
	if len(tup) != f.meta.Width {
		return page.NilRID, fmt.Errorf("isam: tuple width %d, want %d", len(tup), f.meta.Width)
	}
	id, err := f.locate(f.meta.Key.Extract(tup))
	if err != nil {
		return page.NilRID, err
	}
	for left := f.buf.NumPages(); ; left-- {
		if left <= 0 {
			return page.NilRID, am.Overrun(f.buf.Name(), id)
		}
		p, err := f.buf.Fetch(id)
		if err != nil {
			return page.NilRID, err
		}
		if p.HasRoom() {
			slot, err := p.Insert(tup)
			if err != nil {
				return page.NilRID, err
			}
			f.buf.MarkDirty()
			return page.RID{Page: id, Slot: uint16(slot)}, nil
		}
		next := p.Next()
		if next == page.Nil {
			newID := page.ID(f.buf.NumPages())
			p.SetNext(newID)
			f.buf.MarkDirty()
			gotID, np, err := f.buf.Allocate()
			if err != nil {
				return page.NilRID, err
			}
			if gotID != newID {
				return page.NilRID, fmt.Errorf("isam: allocated page %d, expected %d", gotID, newID)
			}
			np.Format(f.meta.Width, page.KindData)
			slot, err := np.Insert(tup)
			if err != nil {
				return page.NilRID, err
			}
			return page.RID{Page: newID, Slot: uint16(slot)}, nil
		}
		id = next
	}
}

// Get implements am.File.
func (f *File) Get(rid page.RID) ([]byte, error) {
	p, err := f.buf.View(rid.Page)
	if err != nil {
		return nil, err
	}
	t, err := p.Get(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	return bytes.Clone(t), nil
}

// Update implements am.File (in place; the key must not change).
func (f *File) Update(rid page.RID, tup []byte) error {
	p, err := f.buf.Fetch(rid.Page)
	if err != nil {
		return err
	}
	if err := p.Replace(int(rid.Slot), tup); err != nil {
		return err
	}
	f.buf.MarkDirty()
	return nil
}

// Delete implements am.File.
func (f *File) Delete(rid page.RID) error {
	p, err := f.buf.Fetch(rid.Page)
	if err != nil {
		return err
	}
	if err := p.Delete(int(rid.Slot)); err != nil {
		return err
	}
	f.buf.MarkDirty()
	return nil
}

// Keyed access is cheaper than a scan, and the key order supports ranges.
func (f *File) Ordered() bool { return true }

// Probe implements am.File: directory walk plus the covering data page's
// chain, filtered by key.
func (f *File) Probe(key int64) am.Iterator { return probe(f, f.buf, key) }

// Chains splits Probe into the key's directory descent, which reads the
// directory through the probe's viewer, and the chains of the data pages
// it finds (am.Chains).
func (f *File) Chains() am.Chains {
	return am.Chains{Key: f.meta.Key, Heads: f.meta.DataPages,
		Locate: func(v am.Viewer, key int64) (page.ID, page.ID, error) {
			return probeRange(f, v, key, key)
		}}
}

// probe walks the pages that can hold key, reading them through v.
func probe[V am.Viewer](f *File, v V, key int64) am.Iterator {
	pw := newProbeWalk(f, v)
	return am.NewWalk(&pw, am.Equal(f.meta.Key, key))
}

// ProbeRange implements am.File: directory walk to the first covering data
// page, then a walk across the covering pages and their chains.
func (f *File) ProbeRange(lo, hi int64) am.Iterator {
	if lo > hi {
		return am.Empty{}
	}
	pw := newProbeWalk(f, f.buf)
	return am.NewWalk(&pw, am.Match{Key: f.meta.Key, Filter: true, Lo: lo, Hi: hi})
}

// Scan implements am.File: data pages in key order, each followed by its
// overflow chain; the directory is not read.
func (f *File) Scan() am.Iterator {
	return am.NewWalk(am.NewPrimaryScan(f.buf, f.meta.DataPages), am.Match{})
}

// ScanParts splits Scan into its data pages: one and its overflow chain
// each.
func (f *File) ScanParts() am.Parts {
	return am.Parts{Units: f.meta.DataPages, Walk: am.PrimaryRange}
}

// probeWalk visits each candidate data page and its overflow chain, from
// the leftmost candidate through the stop page computed from the
// directory, reading pages through v. The walk ends early at a key greater
// than the range's upper bound, which proves no later page can match.
type probeWalk[V am.Viewer] struct {
	v       V
	f       *File
	primary page.ID // data page whose chain is being walked
	cur     page.ID // current page within that chain
	stop    page.ID // last candidate data page; Nil until the directory is read
	left    int32   // pages the walk may still visit (am.Overrun)
}

func newProbeWalk[V am.Viewer](f *File, v V) probeWalk[V] {
	return probeWalk[V]{v: v, f: f, stop: page.Nil, left: int32(v.NumPages())}
}

// View implements am.PageWalk. The first call walks the directory.
func (w *probeWalk[V]) View(m *am.Match) (*page.Page, page.ID, error) {
	if w.stop == page.Nil {
		start, stop, err := probeRange(w.f, w.v, m.Lo, m.Hi)
		if err != nil {
			return nil, page.Nil, err
		}
		w.primary, w.cur, w.stop = start, start, stop
	}
	if w.cur == page.Nil {
		// Finished one data page group.
		if m.Above || w.primary >= w.stop {
			return nil, page.Nil, nil
		}
		w.primary++
		w.cur = w.primary
	}
	if w.left <= 0 {
		return nil, page.Nil, am.Overrun(w.v.Name(), w.cur)
	}
	p, err := w.v.View(w.cur)
	return p, w.cur, err
}

// Leave implements am.PageWalk.
func (w *probeWalk[V]) Leave(p *page.Page) { w.cur, w.left = p.Next(), w.left-1 }
