// Package secindex implements the secondary indexing of Section 6: an index
// on a non-key attribute of a relation with multiple versions. The index is
// either a single file covering all versions (1-level) or a two-level
// structure with a current index and a history index. Either level can be
// stored as a heap (probe scans the whole index) or as a hash file (probe
// reads one bucket chain) — the four cost columns of Figure 10.
//
// "The index needs eight bytes for each entry, four for the secondary key
// and four for a tuple id, and hence can store 101 entries in a page of
// 1024 bytes" — our entries carry a 4-byte key and a 6-byte tuple id
// (page, slot, and a current/history flag), giving the same 101 entries per
// page under the 14-byte page header.
package secindex

import (
	"encoding/binary"
	"fmt"
	"maps"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/page"
)

// Structure selects the index storage layout.
type Structure int

// Index storage structures.
const (
	HeapIdx Structure = iota
	HashIdx
)

// String implements fmt.Stringer.
func (s Structure) String() string {
	if s == HashIdx {
		return "hash"
	}
	return "heap"
}

// entrySize is the byte width of one index entry: 4-byte key + 4-byte page
// + 1-byte slot + 1-byte flags.
const entrySize = 10

// EntriesPerPage is the index fanout (101, as in Section 6).
const EntriesPerPage = (page.Size - page.HeaderSize) / entrySize

// TID is the tuple identifier stored in index entries: a page/slot address
// plus the store it refers to (primary or history, for two-level stores).
type TID struct {
	History bool
	RID     page.RID
}

// Config describes an index.
type Config struct {
	Name      string
	Attr      string    // indexed attribute name (integer-valued)
	Structure Structure // heap or hash
	Levels    int       // 1: single file for all versions; 2: current + history
}

// Index is a secondary index over a relation's versions.
type Index struct {
	cfg  Config
	cur  *entryFile // levels==1: the only file; levels==2: current index
	hist *entryFile // levels==2 only
}

// New creates an empty index. histBuf must be non-nil exactly when
// cfg.Levels == 2.
func New(cfg Config, curBuf, histBuf *buffer.Buffered) (*Index, error) {
	if cfg.Levels != 1 && cfg.Levels != 2 {
		return nil, fmt.Errorf("secindex: levels must be 1 or 2, got %d", cfg.Levels)
	}
	if (cfg.Levels == 2) != (histBuf != nil) {
		return nil, fmt.Errorf("secindex: a history file is required exactly for 2-level indexes")
	}
	ix := &Index{cfg: cfg}
	ix.cur = newEntryFile(curBuf, cfg.Structure)
	if cfg.Levels == 2 {
		ix.hist = newEntryFile(histBuf, cfg.Structure)
	}
	return ix, nil
}

// WithAccount returns a read view of the same index whose page I/O is
// charged to a. The hash directory maps are shared by pointer — they are
// mutated only under the database's exclusive writer lock.
func (ix *Index) WithAccount(a *buffer.Stats) *Index {
	v := &Index{cfg: ix.cfg}
	v.cur = ix.cur.withAccount(a)
	if ix.hist != nil {
		v.hist = ix.hist.withAccount(a)
	}
	return v
}

func (f *entryFile) withAccount(a *buffer.Stats) *entryFile {
	return &entryFile{buf: f.buf.WithAccount(a), structure: f.structure, dir: f.dir}
}

// Rewind drops the hash directory's buckets past the end of their file,
// once a failed statement's revert has shrunk it (buffer.Buffered.End):
// a bucket is only ever added on a page allocated for it.
func (ix *Index) Rewind() {
	for _, f := range []*entryFile{ix.cur, ix.hist} {
		if f != nil {
			n := page.ID(f.buf.NumPages())
			maps.DeleteFunc(f.dir, func(_ int64, id page.ID) bool { return id >= n })
		}
	}
}

// Config returns the index description.
func (ix *Index) Config() Config { return ix.cfg }

// Pages reports the index's size in pages across its entry files — the
// planner's cost input for an index access.
func (ix *Index) Pages() int {
	n := ix.cur.buf.NumPages()
	if ix.hist != nil {
		n += ix.hist.buf.NumPages()
	}
	return n
}

// Insert records a new current version.
func (ix *Index) Insert(key int64, tid TID) error {
	return ix.cur.insert(key, tid)
}

// InsertHistory records a version that is already history (for example the
// temporal delete marker). In a 1-level index it lands in the single file.
func (ix *Index) InsertHistory(key int64, tid TID) error {
	if ix.cfg.Levels == 2 {
		return ix.hist.insert(key, tid)
	}
	return ix.cur.insert(key, tid)
}

// Move re-files the entry for a superseded version: its tuple moved from
// old to new (typically into the history store). In a 2-level index the
// entry migrates from the current index to the history index.
func (ix *Index) Move(key int64, old, new TID) error {
	removed, err := ix.cur.remove(key, old)
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("secindex: %s: no entry for key %d at %v", ix.cfg.Name, key, old.RID)
	}
	if ix.cfg.Levels == 2 {
		return ix.hist.insert(key, new)
	}
	return ix.cur.insert(key, new)
}

// Remove deletes the entry for a version that ceased to exist (static
// delete semantics). It is searched for in the current index first, then in
// the history index.
func (ix *Index) Remove(key int64, tid TID) error {
	removed, err := ix.cur.remove(key, tid)
	if err != nil || removed {
		return err
	}
	if ix.hist != nil {
		removed, err = ix.hist.remove(key, tid)
		if err != nil || removed {
			return err
		}
	}
	return fmt.Errorf("secindex: %s: no entry for key %d at %v", ix.cfg.Name, key, tid.RID)
}

// ProbeCurrent returns the TIDs of current versions with the key. Only a
// 2-level index can answer this precisely; a 1-level index returns every
// version and the caller filters after fetching (which is why Figure 10's
// 1-level numbers include all 29 data pages).
func (ix *Index) ProbeCurrent(key int64) ([]TID, error) {
	return ix.cur.probe(key)
}

// CanProbeCurrent reports whether ProbeCurrent returns only current
// versions (true for 2-level indexes).
func (ix *Index) CanProbeCurrent() bool { return ix.cfg.Levels == 2 }

// ProbeAll returns the TIDs of every version with the key.
func (ix *Index) ProbeAll(key int64) ([]TID, error) {
	tids, err := ix.cur.probe(key)
	if err != nil {
		return nil, err
	}
	if ix.hist != nil {
		ht, err := ix.hist.probe(key)
		if err != nil {
			return nil, err
		}
		tids = append(tids, ht...)
	}
	return tids, nil
}

// Buffers exposes the index file buffers for statistics.
func (ix *Index) Buffers() []*buffer.Buffered {
	bs := []*buffer.Buffered{ix.cur.buf}
	if ix.hist != nil {
		bs = append(bs, ix.hist.buf)
	}
	return bs
}

// NumPages reports the total index size in pages.
func (ix *Index) NumPages() int {
	n := ix.cur.buf.NumPages()
	if ix.hist != nil {
		n += ix.hist.buf.NumPages()
	}
	return n
}

// entryFile stores raw 10-byte entries, as a heap of pages or as a hashed
// structure with one bucket chain per distinct key. The key-to-bucket
// directory is kept in memory (dir), modeling the cached hash directory a
// disk implementation would maintain; only the entry pages themselves incur
// counted I/O — the "1 index page" of the paper's hash-index estimate.
type entryFile struct {
	buf       *buffer.Buffered
	structure Structure
	dir       map[int64]page.ID // hash: key -> first bucket page
}

func newEntryFile(buf *buffer.Buffered, s Structure) *entryFile {
	f := &entryFile{buf: buf, structure: s}
	if s == HashIdx {
		f.dir = make(map[int64]page.ID)
	}
	return f
}

func writeEntry(p *page.Page, i int, key int64, tid TID) {
	off := page.HeaderSize + i*entrySize
	binary.LittleEndian.PutUint32(p[off:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(p[off+4:], uint32(int32(tid.RID.Page)))
	p[off+8] = uint8(tid.RID.Slot)
	var flags uint8
	if tid.History {
		flags = 1
	}
	p[off+9] = flags
}

func readEntry(p *page.Page, i int) (int64, TID) {
	off := page.HeaderSize + i*entrySize
	key := int64(int32(binary.LittleEndian.Uint32(p[off:])))
	tid := TID{
		RID:     page.RID{Page: page.ID(int32(binary.LittleEndian.Uint32(p[off+4:]))), Slot: uint16(p[off+8])},
		History: p[off+9]&1 != 0,
	}
	return key, tid
}

// insert appends an entry: heaps fill the last page; hash files walk the
// key's bucket chain, creating the bucket on first use.
func (f *entryFile) insert(key int64, tid TID) error {
	if f.structure == HeapIdx {
		n := f.buf.NumPages()
		if n > 0 {
			p, err := f.buf.Fetch(page.ID(n - 1))
			if err != nil {
				return err
			}
			if p.Aux() < EntriesPerPage {
				writeEntry(p, p.Aux(), key, tid)
				p.SetAux(p.Aux() + 1)
				f.buf.MarkDirty()
				return nil
			}
		}
		_, p, err := f.buf.Allocate()
		if err != nil {
			return err
		}
		p.Format(entrySize, page.KindIndex)
		writeEntry(p, 0, key, tid)
		p.SetAux(1)
		return nil
	}

	id, ok := f.dir[key]
	if !ok {
		newID, p, err := f.buf.Allocate()
		if err != nil {
			return err
		}
		p.Format(entrySize, page.KindIndex)
		writeEntry(p, 0, key, tid)
		p.SetAux(1)
		f.dir[key] = newID
		return nil
	}
	for left := f.buf.NumPages(); ; left-- {
		if left <= 0 {
			return am.Overrun(f.buf.Name(), id)
		}
		p, err := f.buf.Fetch(id)
		if err != nil {
			return err
		}
		if p.Aux() < EntriesPerPage {
			writeEntry(p, p.Aux(), key, tid)
			p.SetAux(p.Aux() + 1)
			f.buf.MarkDirty()
			return nil
		}
		next := p.Next()
		if next == page.Nil {
			newID := page.ID(f.buf.NumPages())
			p.SetNext(newID)
			f.buf.MarkDirty()
			gotID, np, err := f.buf.Allocate()
			if err != nil {
				return err
			}
			if gotID != newID {
				return fmt.Errorf("secindex: allocated page %d, expected %d", gotID, newID)
			}
			np.Format(entrySize, page.KindIndex)
			writeEntry(np, 0, key, tid)
			np.SetAux(1)
			return nil
		}
		id = next
	}
}

// probe collects the TIDs for key. A heap index reads every page; a hash
// index reads the key's bucket chain — the difference between 295 pages and
// 1 page in Figure 10.
func (f *entryFile) probe(key int64) ([]TID, error) {
	var out []TID
	scanPage := func(id page.ID) (page.ID, error) {
		p, err := f.buf.Fetch(id)
		if err != nil {
			return page.Nil, err
		}
		for i := 0; i < p.Aux(); i++ {
			k, tid := readEntry(p, i)
			if k == key {
				out = append(out, tid)
			}
		}
		return p.Next(), nil
	}
	if f.structure == HeapIdx {
		for id := page.ID(0); int(id) < f.buf.NumPages(); id++ {
			if _, err := scanPage(id); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	id, ok := f.dir[key]
	if !ok {
		return nil, nil
	}
	for left := f.buf.NumPages(); id != page.Nil; left-- {
		if left <= 0 {
			return nil, am.Overrun(f.buf.Name(), id)
		}
		next, err := scanPage(id)
		if err != nil {
			return nil, err
		}
		id = next
	}
	return out, nil
}

// remove deletes one entry matching (key, tid), compacting within its page.
func (f *entryFile) remove(key int64, tid TID) (bool, error) {
	removeIn := func(id page.ID) (bool, page.ID, error) {
		p, err := f.buf.Fetch(id)
		if err != nil {
			return false, page.Nil, err
		}
		n := p.Aux()
		for i := 0; i < n; i++ {
			k, t := readEntry(p, i)
			if k == key && t == tid {
				if i != n-1 {
					lk, lt := readEntry(p, n-1)
					writeEntry(p, i, lk, lt)
				}
				p.SetAux(n - 1)
				f.buf.MarkDirty()
				return true, page.Nil, nil
			}
		}
		return false, p.Next(), nil
	}
	if f.structure == HeapIdx {
		for id := page.ID(0); int(id) < f.buf.NumPages(); id++ {
			done, _, err := removeIn(id)
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	}
	id, ok := f.dir[key]
	if !ok {
		return false, nil
	}
	for left := f.buf.NumPages(); id != page.Nil; left-- {
		if left <= 0 {
			return false, am.Overrun(f.buf.Name(), id)
		}
		done, next, err := removeIn(id)
		if err != nil || done {
			return done, err
		}
		id = next
	}
	return false, nil
}
