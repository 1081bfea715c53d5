// Package btree implements a B+-tree access method over the same slotted
// pages as the other storage structures.
//
// Section 6 of the paper weighs B-trees as the adaptive alternative to
// static hashing and ISAM: "There are other access methods that adapt to
// dynamic growth better, such as B-trees ... But these methods require
// complex algorithms and significant overhead to maintain certain
// structures as new records are added. Furthermore, a large number of
// versions for some tuples will require more than a bucket for a single
// key, causing similar problems exhibited in conventional hashing and
// ISAM." This implementation lets the benchmark measure both effects: leaf
// splits keep probes at O(height) as the file grows, but the run of equal
// keys produced by versioning still has to be walked in full.
//
// Layout: leaf pages hold tuples (sorted at split time; a leaf's key range
// is maintained by the descent) and are chained left-to-right through the
// page overflow link, so a full scan is a leaf-chain walk. Internal pages
// hold 8-byte (key, child) entries; entry i points to the subtree with keys
// >= key i, and the first entry acts as the minus-infinity child. Deletes
// are lazy (slots are freed, pages are not merged), which suits the
// append-only update patterns of temporal relations.
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
)

// entrySize is the width of an internal-node entry: 4-byte key + 4-byte
// child page.
const entrySize = 8

// Fanout is the number of entries per internal page.
const Fanout = (page.Size - page.HeaderSize) / entrySize

// Meta describes a B-tree's parameters. Root and Height change as the tree
// grows.
type Meta struct {
	Width  int
	Key    am.Key
	Root   page.ID
	Height int // number of internal levels above the leaves; 0 = root is a leaf
}

// File is a B+-tree over a buffered paged file. Its views (WithBuffer)
// share its Meta, so a root split made through any of them moves the root
// and height every one of them descends from.
type File struct {
	buf  *buffer.Buffered
	meta *Meta
	mark Meta // the root and height at Mark
}

// Build creates an empty B-tree (a single empty leaf as the root) and bulk
// loads the given tuples. The buffered file must be empty.
func Build(buf *buffer.Buffered, width int, key am.Key, tuples [][]byte) (*File, error) {
	if buf.NumPages() != 0 {
		return nil, fmt.Errorf("btree: build requires an empty file, have %d pages", buf.NumPages())
	}
	rootID, p, err := buf.Allocate()
	if err != nil {
		return nil, err
	}
	p.Format(width, page.KindData)
	f := &File{buf: buf, meta: &Meta{Width: width, Key: key, Root: rootID, Height: 0}}
	sort.SliceStable(tuples, func(i, j int) bool {
		return key.Extract(tuples[i]) < key.Extract(tuples[j])
	})
	for _, t := range tuples {
		if _, err := f.Insert(t); err != nil {
			return nil, err
		}
	}
	if err := buf.Flush(); err != nil {
		return nil, err
	}
	return f, nil
}

// New opens an existing B-tree described by meta.
func New(buf *buffer.Buffered, meta Meta) *File {
	return &File{buf: buf, meta: &meta}
}

// WithBuffer returns a view of the same tree reading and writing through
// buf (a handle on the same pool, typically carrying a session account).
// The view shares the tree's Meta, so it sees and makes the same root
// splits.
func (f *File) WithBuffer(buf *buffer.Buffered) *File {
	return &File{buf: buf, meta: f.meta}
}

// Mark implements am.Marker: it records the root and height a split
// moves, and Rewind restores them.
func (f *File) Mark() { f.mark = *f.meta }

// Rewind implements am.Marker.
func (f *File) Rewind() { *f.meta = f.mark }

// Buffer exposes the underlying buffered file.
func (f *File) Buffer() *buffer.Buffered { return f.buf }

// Meta returns the current tree parameters (root and height move as the
// tree grows).
func (f *File) Meta() Meta { return *f.meta }

// NumPages reports the file size in pages.
func (f *File) NumPages() int { return f.buf.NumPages() }

// Height reports the number of internal levels.
func (f *File) Height() int { return f.meta.Height }

// Keyed implements am.File.
func (f *File) Keyed() bool { return true }

func writeEntry(p *page.Page, i int, key int64, child page.ID) {
	off := page.HeaderSize + i*entrySize
	binary.LittleEndian.PutUint32(p[off:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(p[off+4:], uint32(int32(child)))
}

func readEntry(p *page.Page, i int) (int64, page.ID) {
	off := page.HeaderSize + i*entrySize
	return int64(int32(binary.LittleEndian.Uint32(p[off:]))),
		page.ID(int32(binary.LittleEndian.Uint32(p[off+4:])))
}

// childFor picks the descent entry: the last entry with key <= probe, or
// the first entry for keys below the minimum.
func childFor(p *page.Page, key int64, leftmost bool) (int, page.ID) {
	n := p.Aux()
	var idx int
	if leftmost {
		// First entry with key >= probe, minus one: the leftmost subtree
		// that can contain the key (duplicates may span the separator).
		idx = sort.Search(n, func(i int) bool {
			k, _ := readEntry(p, i)
			return k >= key
		}) - 1
	} else {
		idx = sort.Search(n, func(i int) bool {
			k, _ := readEntry(p, i)
			return k > key
		}) - 1
	}
	if idx < 0 {
		idx = 0
	}
	_, child := readEntry(p, idx)
	return idx, child
}

// split is a promotion produced by an insert: a new right sibling and its
// separator key.
type split struct {
	key   int64
	right page.ID
}

// Insert implements am.File.
func (f *File) Insert(tup []byte) (page.RID, error) {
	if len(tup) != f.meta.Width {
		return page.NilRID, fmt.Errorf("btree: tuple width %d, want %d", len(tup), f.meta.Width)
	}
	rid, promoted, err := f.insertAt(f.meta.Root, f.meta.Height, tup)
	if err != nil {
		return page.NilRID, err
	}
	if promoted != nil {
		// Root split: grow a new root above.
		oldRoot := f.meta.Root
		newRootID, p, err := f.buf.Allocate()
		if err != nil {
			return page.NilRID, err
		}
		p.Format(entrySize, page.KindDirectory)
		// The old root becomes the minus-infinity child.
		writeEntry(p, 0, -1<<31, oldRoot)
		writeEntry(p, 1, promoted.key, promoted.right)
		p.SetAux(2)
		f.meta.Root = newRootID
		f.meta.Height++
	}
	return rid, nil
}

// insertAt inserts into the subtree rooted at id, level levels above the
// leaves, and reports a promotion if the child split.
func (f *File) insertAt(id page.ID, level int, tup []byte) (page.RID, *split, error) {
	if level == 0 {
		return f.insertLeaf(id, tup)
	}
	p, err := f.buf.Fetch(id)
	if err != nil {
		return page.NilRID, nil, err
	}
	key := f.meta.Key.Extract(tup)
	_, child := childFor(p, key, false)
	rid, promoted, err := f.insertAt(child, level-1, tup)
	if err != nil || promoted == nil {
		return rid, nil, err
	}
	// Insert the promoted separator into this node (re-fetch: the
	// recursion evicted our frame).
	p, err = f.buf.Fetch(id)
	if err != nil {
		return page.NilRID, nil, err
	}
	n := p.Aux()
	if n < Fanout {
		pos := sort.Search(n, func(i int) bool {
			k, _ := readEntry(p, i)
			return k > promoted.key
		})
		// Shift entries right.
		for i := n; i > pos; i-- {
			k, c := readEntry(p, i-1)
			writeEntry(p, i, k, c)
		}
		writeEntry(p, pos, promoted.key, promoted.right)
		p.SetAux(n + 1)
		f.buf.MarkDirty()
		return rid, nil, nil
	}
	// Split this internal node: keep the left half, promote the middle.
	type ent struct {
		k int64
		c page.ID
	}
	entries := make([]ent, 0, n+1)
	for i := 0; i < n; i++ {
		k, c := readEntry(p, i)
		entries = append(entries, ent{k, c})
	}
	pos := sort.Search(len(entries), func(i int) bool { return entries[i].k > promoted.key })
	entries = append(entries[:pos], append([]ent{{promoted.key, promoted.right}}, entries[pos:]...)...)
	mid := len(entries) / 2
	sep := entries[mid]

	for i := 0; i < mid; i++ {
		writeEntry(p, i, entries[i].k, entries[i].c)
	}
	p.SetAux(mid)
	f.buf.MarkDirty()

	rightID, rp, err := f.buf.Allocate()
	if err != nil {
		return page.NilRID, nil, err
	}
	rp.Format(entrySize, page.KindDirectory)
	// The separator's child becomes the right node's minus-infinity child.
	writeEntry(rp, 0, -1<<31, sep.c)
	for i := mid + 1; i < len(entries); i++ {
		writeEntry(rp, i-mid, entries[i].k, entries[i].c)
	}
	rp.SetAux(len(entries) - mid)
	return rid, &split{key: sep.k, right: rightID}, nil
}

// insertLeaf inserts into a leaf, splitting it when full.
func (f *File) insertLeaf(id page.ID, tup []byte) (page.RID, *split, error) {
	p, err := f.buf.Fetch(id)
	if err != nil {
		return page.NilRID, nil, err
	}
	if p.HasRoom() {
		slot, err := p.Insert(tup)
		if err != nil {
			return page.NilRID, nil, err
		}
		f.buf.MarkDirty()
		return page.RID{Page: id, Slot: uint16(slot)}, nil, nil
	}

	// Split: gather, sort, keep the lower half here.
	var tuples [][]byte
	p.Tuples(func(slot int, t []byte) bool {
		cp := make([]byte, len(t))
		copy(cp, t)
		tuples = append(tuples, cp)
		return true
	})
	tuples = append(tuples, append([]byte(nil), tup...))
	sort.SliceStable(tuples, func(i, j int) bool {
		return f.meta.Key.Extract(tuples[i]) < f.meta.Key.Extract(tuples[j])
	})
	mid := len(tuples) / 2
	sepKey := f.meta.Key.Extract(tuples[mid])
	oldNext := p.Next()

	p.Format(f.meta.Width, page.KindData)
	for _, t := range tuples[:mid] {
		if _, err := p.Insert(t); err != nil {
			return page.NilRID, nil, err
		}
	}
	newRight := page.ID(f.buf.NumPages())
	p.SetNext(newRight)
	f.buf.MarkDirty()

	gotID, rp, err := f.buf.Allocate()
	if err != nil {
		return page.NilRID, nil, err
	}
	if gotID != newRight {
		return page.NilRID, nil, fmt.Errorf("btree: allocated page %d, expected %d", gotID, newRight)
	}
	rp.Format(f.meta.Width, page.KindData)
	rp.SetNext(oldNext)
	for _, t := range tuples[mid:] {
		if _, err := rp.Insert(t); err != nil {
			return page.NilRID, nil, err
		}
	}

	// Locate the freshly inserted tuple (it is bytewise unique enough to
	// find by equality of key; return the last matching slot of whichever
	// half holds it). A stable resolution: search the right half first.
	key := f.meta.Key.Extract(tup)
	if key >= sepKey {
		slot := findSlot(rp, tup)
		return page.RID{Page: newRight, Slot: uint16(slot)}, &split{key: sepKey, right: newRight}, nil
	}
	p, err = f.buf.Fetch(id)
	if err != nil {
		return page.NilRID, nil, err
	}
	slot := findSlot(p, tup)
	return page.RID{Page: id, Slot: uint16(slot)}, &split{key: sepKey, right: newRight}, nil
}

// findSlot returns a slot holding a tuple bytewise equal to tup.
func findSlot(p *page.Page, tup []byte) int {
	found := -1
	p.Tuples(func(slot int, t []byte) bool {
		if string(t) == string(tup) {
			found = slot
			return false
		}
		return true
	})
	return found
}

// descend walks to the leftmost leaf that can contain key.
func (f *File) descend(key int64, leftmost bool) (page.ID, error) {
	id := f.meta.Root
	for level := f.meta.Height; level > 0; level-- {
		p, err := f.buf.View(id)
		if err != nil {
			return page.Nil, err
		}
		_, id = childFor(p, key, leftmost)
	}
	return id, nil
}

// Get implements am.File.
func (f *File) Get(rid page.RID) ([]byte, error) {
	p, err := f.buf.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	t, err := p.Get(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(t))
	copy(out, t)
	return out, nil
}

// Update implements am.File. Note that leaf splits relocate tuples, so RIDs
// are only stable between structure modifications; the engine re-probes
// after materializing DML candidates, which keeps this safe for its
// access patterns.
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

// Delete implements am.File (lazy: the slot is freed, pages never merge).
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

// Ordered implements am.File.
func (f *File) Ordered() bool { return true }

// Probe implements am.File: descend to the leftmost candidate leaf, then
// walk right along the leaf chain until a key greater than the probe key
// appears.
func (f *File) Probe(key int64) am.Iterator {
	return am.NewWalk(f.newLeafWalk(), am.Equal(f.meta.Key, key))
}

// ProbeRange implements am.File: descend to the leftmost leaf covering lo,
// then walk the leaf chain until past hi.
func (f *File) ProbeRange(lo, hi int64) am.Iterator {
	if lo > hi {
		return am.Empty{}
	}
	return am.NewWalk(f.newLeafWalk(), am.Match{Key: f.meta.Key, Filter: true, Lo: lo, Hi: hi})
}

// Scan implements am.File: walk the leaf chain from the leftmost leaf.
func (f *File) Scan() am.Iterator {
	return &scanIter{f: f}
}

// leafWalk visits the leaf chain from the leftmost leaf that can hold the
// walk's lower bound. Slots within a leaf are not in key order, so the leaf
// that first shows a key above the upper bound is read to its end, and is
// the last.
type leafWalk struct {
	f   *File
	m   *am.Match // the walk's restriction, seen on the first View
	cur page.ID
	// left is the leaves the walk may still visit: a chain longer than
	// the file held when the walk started loops (am.Overrun).
	left int32
}

func (f *File) newLeafWalk() *leafWalk {
	return &leafWalk{f: f, left: int32(f.buf.NumPages())}
}

// View implements am.PageWalk. The first call descends the tree.
func (w *leafWalk) View(m *am.Match) (*page.Page, page.ID, error) {
	if w.m == nil {
		leaf, err := w.f.descend(m.Lo, true)
		if err != nil {
			return nil, page.Nil, err
		}
		w.m, w.cur = m, leaf
	}
	if w.cur == page.Nil {
		return nil, page.Nil, nil
	}
	if w.left <= 0 {
		return nil, w.cur, am.Overrun(w.f.buf.Name(), w.cur)
	}
	p, err := w.f.buf.View(w.cur)
	return p, w.cur, err
}

// Leave implements am.PageWalk.
func (w *leafWalk) Leave(p *page.Page) {
	w.cur, w.left = p.Next(), w.left-1
	if w.m.Above {
		w.cur = page.Nil
	}
}

// scanIter reads each leaf once and offers its tuples sorted by key: slots
// within a leaf are in insertion order, and leaf key ranges do not overlap
// except for runs of equal keys, whose relative order is immaterial, so the
// scan presents global key order.
type scanIter struct {
	f       *File
	cur     page.ID
	left    int // leaves the scan may still read (am.Overrun)
	started bool
	pending []pendingTuple // the current leaf's tuples, sorted; pending[idx:] not yet offered
	idx     int
	arena   am.Arena // backs pending
}

type pendingTuple struct {
	rid page.RID
	key int64
	tup []byte
}

// NextBlock implements am.Iterator.
func (it *scanIter) NextBlock(blk *am.Block, max int) (bool, error) {
	blk.Reset()
	if !it.started {
		leaf, err := it.f.descend(-1<<62, true)
		if err != nil {
			return false, err
		}
		it.cur, it.left, it.started = leaf, it.f.buf.NumPages(), true
	}
	if max < 1 {
		max = 1
	}
	for n := 0; n < max; {
		if it.idx == len(it.pending) {
			if it.cur == page.Nil {
				return n > 0, nil
			}
			if err := it.load(); err != nil {
				return false, err
			}
			continue
		}
		pt := it.pending[it.idx]
		it.idx++
		n++
		if err := blk.Offer(pt.rid, pt.tup); err != nil {
			return false, err
		}
	}
	return true, nil
}

// load reads the leaf under the cursor into pending, in key order, and
// moves the cursor to the next leaf.
func (it *scanIter) load() error {
	if it.left <= 0 {
		return am.Overrun(it.f.buf.Name(), it.cur)
	}
	it.left--
	p, err := it.f.buf.View(it.cur)
	if err != nil {
		return err
	}
	it.arena.Reset()
	it.pending, it.idx = it.pending[:0], 0
	leaf := it.cur
	p.Tuples(func(slot int, t []byte) bool {
		it.pending = append(it.pending, pendingTuple{
			rid: page.RID{Page: leaf, Slot: uint16(slot)},
			key: it.f.meta.Key.Extract(t),
			tup: it.arena.Copy(t),
		})
		return true
	})
	sort.SliceStable(it.pending, func(i, j int) bool {
		return it.pending[i].key < it.pending[j].key
	})
	it.cur = p.Next()
	return nil
}
