// Package heapfile implements the unordered heap access method: tuples are
// appended to the last page with room, and a scan visits pages in file
// order. Heaps store temporary relations, freshly created user relations
// (before a `modify`), and the heap variants of the Section 6 secondary
// indexes and history store.
package heapfile

import (
	"bytes"
	"fmt"
	"math"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
)

// File is a heap file over a buffered paged file.
type File struct {
	buf   *buffer.Buffered
	width int
	key   am.Key // used only by Probe; zero Key means unkeyed
	keyed bool
}

// New opens a heap over buf holding tuples of the given width. The file may
// be empty or already contain heap pages of the same width.
func New(buf *buffer.Buffered, width int) *File {
	return &File{buf: buf, width: width}
}

// NewKeyed opens a heap that knows where its key lives, enabling Probe
// (still a full scan — heaps have no access path, which is why Figure 10
// stores indexes in hash files for the fast variants).
func NewKeyed(buf *buffer.Buffered, width int, key am.Key) *File {
	return &File{buf: buf, width: width, key: key, keyed: true}
}

// WithBuffer returns a view of the same heap reading through buf (a handle
// on the same pool, typically carrying a session account). The heap itself
// is stateless beyond its buffer, so the view shares all pages.
func (f *File) WithBuffer(buf *buffer.Buffered) *File {
	g := *f
	g.buf = buf
	return &g
}

// Buffer exposes the underlying buffered file (for statistics).
func (f *File) Buffer() *buffer.Buffered { return f.buf }

// Width returns the tuple width.
func (f *File) Width() int { return f.width }

// NumPages reports the file size in pages.
func (f *File) NumPages() int { return f.buf.NumPages() }

// Insert implements am.File, appending to the last page with room.
func (f *File) Insert(tup []byte) (page.RID, error) {
	if len(tup) != f.width {
		return page.NilRID, fmt.Errorf("heapfile: tuple width %d, want %d", len(tup), f.width)
	}
	n := f.buf.NumPages()
	if n > 0 {
		id := page.ID(n - 1)
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
	}
	id, p, err := f.buf.Allocate()
	if err != nil {
		return page.NilRID, err
	}
	p.Format(f.width, page.KindData)
	slot, err := p.Insert(tup)
	if err != nil {
		return page.NilRID, err
	}
	return page.RID{Page: id, Slot: uint16(slot)}, nil
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

// Update implements am.File.
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

// Keyed implements am.File.
func (f *File) Keyed() bool { return false }

// Ordered implements am.File.
func (f *File) Ordered() bool { return false }

// ProbeRange implements am.File as a filtered full scan.
func (f *File) ProbeRange(lo, hi int64) am.Iterator {
	if !f.keyed {
		return am.Empty{}
	}
	return am.NewWalk(scanPart(f.buf, 0, math.MaxInt), am.Match{Key: f.key, Filter: true, Lo: lo, Hi: hi})
}

// Scan implements am.File, visiting pages in file order.
func (f *File) Scan() am.Iterator {
	return am.NewWalk(scanPart(f.buf, 0, math.MaxInt), am.Match{})
}

// Parts splits Scan into its pages, one unit each.
func (f *File) Parts() am.Parts {
	return am.Parts{Units: f.buf.NumPages(), Walk: scanPart}
}

// scanPart walks pages lo..hi-1 through v.
func scanPart(v am.PageViewer, lo, hi int) am.PageWalk {
	return &scanWalk{v: v, cur: page.ID(lo), hi: hi}
}

// Probe implements am.File as a filtered full scan.
func (f *File) Probe(key int64) am.Iterator {
	if !f.keyed {
		return am.Empty{}
	}
	return am.NewWalk(scanPart(f.buf, 0, math.MaxInt), am.Equal(f.key, key))
}

// scanWalk visits the pages in file order, up to page hi-1 or whatever the
// file's last page is when the scan gets there, whichever comes first.
// Heap pages are fully contiguous, so the rest of the file is one run.
type scanWalk struct {
	v   am.PageViewer
	cur page.ID
	hi  int
}

// View implements am.PageWalk.
func (w *scanWalk) View(*am.Match) (*page.Page, page.ID, error) {
	n := min(w.hi, w.v.NumPages())
	if int(w.cur) >= n {
		return nil, page.Nil, nil
	}
	p, err := w.v.ViewAhead(w.cur, n-int(w.cur)-1)
	return p, w.cur, err
}

// Leave implements am.PageWalk.
func (w *scanWalk) Leave(*page.Page) { w.cur++ }
