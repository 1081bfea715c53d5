// Package hashfile implements Ingres-style static hashing: a fixed number
// of primary pages chosen by `modify R to hash on key where fillfactor = N`,
// with an overflow chain hanging off each primary page.
//
// The bucket function is key mod P. Because every version of a tuple shares
// its key, updates lengthen the chain of that key's bucket; the benchmark's
// growth-rate analysis (Section 5.3) and the O(n^2) single-tuple update cost
// (Section 5.4) both fall directly out of this structure.
package hashfile

import (
	"bytes"
	"fmt"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
)

// Meta describes a hash file's fixed parameters; the catalog persists it.
type Meta struct {
	Width   int    // tuple width in bytes
	Key     am.Key // key location within the tuple
	Primary int    // number of primary pages (buckets)
}

// PrimaryPages computes the primary page count Ingres's modify would choose:
// enough pages to hold ntuples at the requested fillfactor, plus one.
// fillfactor is a percentage (100 or 50 in the benchmark).
func PrimaryPages(ntuples, width, fillfactor int) int {
	perPage := page.Capacity(width) * fillfactor / 100
	if perPage < 1 {
		perPage = 1
	}
	return (ntuples+perPage-1)/perPage + 1
}

// File is a static hash file over a buffered paged file.
type File struct {
	buf  *buffer.Buffered
	meta Meta
}

// Build formats an empty buffered file with meta.Primary empty primary
// pages and returns the opened hash file. The file must be empty.
func Build(buf *buffer.Buffered, meta Meta) (*File, error) {
	if buf.NumPages() != 0 {
		return nil, fmt.Errorf("hashfile: build requires an empty file, have %d pages", buf.NumPages())
	}
	if meta.Primary < 1 {
		return nil, fmt.Errorf("hashfile: need at least one primary page")
	}
	for i := 0; i < meta.Primary; i++ {
		_, p, err := buf.Allocate()
		if err != nil {
			return nil, err
		}
		p.Format(meta.Width, page.KindData)
	}
	if err := buf.Flush(); err != nil {
		return nil, err
	}
	return &File{buf: buf, meta: meta}, nil
}

// New opens an existing hash file described by meta.
func New(buf *buffer.Buffered, meta Meta) *File {
	return &File{buf: buf, meta: meta}
}

// Buffer exposes the underlying buffered file.
func (f *File) Buffer() *buffer.Buffered { return f.buf }

// Meta returns the file's parameters.
func (f *File) Meta() Meta { return f.meta }

// NumPages reports the file size in pages (primary + overflow).
func (f *File) NumPages() int { return f.buf.NumPages() }

// Bucket returns the primary page for a key.
func (f *File) Bucket(key int64) page.ID {
	p := int64(f.meta.Primary)
	return page.ID(((key % p) + p) % p)
}

// Keyed implements am.File.
func (f *File) Keyed() bool { return true }

// Ordered implements am.File: hashing has no key order.
func (f *File) Ordered() bool { return false }

// ProbeRange implements am.File as a filtered full scan (static hashing
// cannot do better; Section 6's case for ordered structures).
func (f *File) ProbeRange(lo, hi int64) am.Iterator {
	return am.NewWalk(am.PrimaryRange(f.buf, 0, f.meta.Primary),
		am.Match{Key: f.meta.Key, Filter: true, Lo: lo, Hi: hi})
}

// Insert implements am.File: the tuple goes to the first page of its
// bucket's chain with room, extending the chain if necessary. The walk from
// the primary page is what makes repeated updates of one tuple cost O(n^2)
// pages in total (Section 5.4). A failed allocation leaves the chain's tail
// linked to the page it would have been, for the writer's revert to put
// back (buffer.Buffered.End); a rebuild that fails abandons its file.
func (f *File) Insert(tup []byte) (page.RID, error) {
	if len(tup) != f.meta.Width {
		return page.NilRID, fmt.Errorf("hashfile: tuple width %d, want %d", len(tup), f.meta.Width)
	}
	id := f.Bucket(f.meta.Key.Extract(tup))
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
			// Extend the chain: the new page's ID is known before
			// allocation, so the link can be set without re-reading.
			newID := page.ID(f.buf.NumPages())
			p.SetNext(newID)
			f.buf.MarkDirty()
			gotID, np, err := f.buf.Allocate()
			if err != nil {
				return page.NilRID, err
			}
			if gotID != newID {
				return page.NilRID, fmt.Errorf("hashfile: allocated page %d, expected %d", gotID, newID)
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

// Probe implements am.File: hashed access, reading only the bucket's chain.
func (f *File) Probe(key int64) am.Iterator {
	return am.NewWalk(am.NewChainWalk(f.buf, f), am.Equal(f.meta.Key, key))
}

// Locate implements am.Locator: the bucket of lo, which reads nothing.
func (f *File) Locate(_ am.Viewer, lo, _ int64) (page.ID, page.ID, error) {
	b := f.Bucket(lo)
	return b, b, nil
}

// Scan implements am.File: every primary page followed by its chain.
func (f *File) Scan() am.Iterator {
	return am.NewWalk(am.PrimaryRange(f.buf, 0, f.meta.Primary), am.Match{})
}

// Parts splits Scan into its buckets, a primary page and its chain each,
// and Probe into the key's bucket and its chain.
func (f *File) Parts() am.Parts {
	return am.Parts{Units: f.meta.Primary, Walk: am.PrimaryRange, Chains: am.Chains{Key: f.meta.Key, Locator: f}}
}
