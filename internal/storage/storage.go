// Package storage provides the paged-file abstraction beneath the buffer
// manager: a flat, dense array of 1024-byte pages addressed by page ID.
//
// Two backends are provided. Mem keeps pages in memory and is what the
// in-memory benchmarks use (the paper's metric is page accesses, which the
// buffer manager counts identically for either backend). Disk stores pages
// in an ordinary file so the same engine can run persistently: it writes
// with positioned writes and reads by copying out of a read-only shared
// mapping of the file, one read path, with no read syscall per page.
package storage

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"tdbms/internal/page"
)

// File is a dense array of pages.
type File interface {
	// ReadPage copies page id into p.
	ReadPage(id page.ID, p *page.Page) error
	// ReadPages copies the consecutive pages id..id+len(ps)-1 into ps in
	// one operation — the readahead path of the buffer manager. The whole
	// run must be in range.
	ReadPages(id page.ID, ps []page.Page) error
	// WritePage stores p at page id. id must be < NumPages().
	WritePage(id page.ID, p *page.Page) error
	// Allocate extends the file by one zeroed page and returns its ID.
	Allocate() (page.ID, error)
	// NumPages reports the current number of pages.
	NumPages() int
	// Truncate discards all pages.
	Truncate() error
	// Close releases underlying resources.
	Close() error
}

func checkBounds(id page.ID, n int) error {
	if id < 0 || int(id) >= n {
		return fmt.Errorf("storage: page %d out of range [0,%d)", id, n)
	}
	return nil
}

// Mem is an in-memory File. The zero value is an empty file ready to use.
//
// Pages live in chunks of contiguous pages that are never moved or
// resized, so the address Lend hands out stays that page's address until
// Truncate, and a walk over neighbouring pages stays in neighbouring
// memory. A page's address is found from a small chunk directory by shift
// and mask, with no per-page pointer to chase. Files grow by doubling up
// to memChunk pages (chunks of 1, 1, 2, 4, …, 32 pages hold the first
// memChunk), and by whole memChunk-page chunks after that: a one-page
// temporary holds 1 KiB, not a 64 KiB chunk.
//
// The directory is immutable once published through an atomic pointer,
// so Lend and NumPages take no lock. Writers of the directory (Allocate,
// Truncate) and of page contents (WritePage) hold the mutex exclusively;
// ReadPage and ReadPages hold it shared, so a copy is never torn.
type Mem struct {
	mu  sync.RWMutex
	dir atomic.Pointer[memDir]
}

// memChunkShift sizes the chunks past the first memChunk pages.
const (
	memChunkShift = 6
	memChunk      = 1 << memChunkShift
)

// memDir is one published state of a Mem: n pages, held in chunks. A
// directory is never modified after it is published; Allocate publishes a
// new one, which shares the chunks (and, while it has room, the backing
// array of the chunk list: an older directory never reads past its own
// length).
type memDir struct {
	n      int
	chunks [][]page.Page
}

// emptyDir is the directory of an empty file.
var emptyDir = &memDir{}

// locate returns the chunk holding page id and the page's index in it.
// Chunk 0 is page 0; chunk c in 1..memChunkShift holds pages
// [2^(c-1), 2^c); each later chunk holds memChunk pages.
func locate(id int) (c, i int) {
	if id < memChunk {
		c = bits.Len(uint(id))
		return c, id &^ (1 << c >> 1)
	}
	return memChunkShift + id>>memChunkShift, id & (memChunk - 1)
}

// NewMem returns an empty in-memory paged file.
func NewMem() *Mem { return &Mem{} }

// load returns the current directory.
func (m *Mem) load() *memDir {
	if d := m.dir.Load(); d != nil {
		return d
	}
	return emptyDir
}

// at returns the address of page id, which must be below d.n.
func (d *memDir) at(id page.ID) *page.Page {
	c, i := locate(int(id))
	return &d.chunks[c][i]
}

// ReadPage implements File.
func (m *Mem) ReadPage(id page.ID, p *page.Page) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d := m.load()
	if err := checkBounds(id, d.n); err != nil {
		return err
	}
	*p = *d.at(id)
	return nil
}

// Lend returns the resident page itself instead of a copy of it. The
// caller must not write through the pointer, and must hold whatever keeps
// writers of the file out (the engine's relation latch) for as long as it
// reads through it: WritePage stores into this same memory. Lend takes no
// lock.
func (m *Mem) Lend(id page.ID) (*page.Page, error) {
	d := m.load()
	if err := checkBounds(id, d.n); err != nil {
		return nil, err
	}
	return d.at(id), nil
}

// ReadPages implements File.
func (m *Mem) ReadPages(id page.ID, ps []page.Page) error {
	if len(ps) == 0 {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	d := m.load()
	if err := checkBounds(id, d.n); err != nil {
		return err
	}
	if err := checkBounds(id+page.ID(len(ps))-1, d.n); err != nil {
		return err
	}
	for i := range ps {
		ps[i] = *d.at(id + page.ID(i))
	}
	return nil
}

// WritePage implements File.
func (m *Mem) WritePage(id page.ID, p *page.Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.load()
	if err := checkBounds(id, d.n); err != nil {
		return err
	}
	*d.at(id) = *p
	return nil
}

// Allocate implements File. A page past the last chunk starts a new,
// zeroed chunk as large as the file was, up to memChunk pages, which is
// the layout locate reads; any other new page is a never-written page of
// the last chunk.
func (m *Mem) Allocate() (page.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.load()
	next := &memDir{n: d.n + 1, chunks: d.chunks}
	if c, _ := locate(d.n); c == len(d.chunks) {
		next.chunks = append(next.chunks, make([]page.Page, min(max(d.n, 1), memChunk)))
	}
	m.dir.Store(next)
	return page.ID(d.n), nil
}

// NumPages implements File. It takes no lock.
func (m *Mem) NumPages() int { return m.load().n }

// Truncate implements File. The chunks are dropped, not reused: a page in
// one may still be on loan.
func (m *Mem) Truncate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dir.Store(emptyDir)
	return nil
}

// Close implements File.
func (m *Mem) Close() error { return nil }

// Disk is a File backed by an operating-system file. Reads copy pages out
// of a read-only shared mapping of the file (see mapping); writes, growth
// and truncation go through the file itself with pwrite/ftruncate, which
// the unified page cache makes visible through the mapping at once. Nothing
// is written through the mapping, so durability and write ordering are the
// file's alone. The latch guards the page count and the mapping: reads and
// page writes share it, Allocate (which may remap), Truncate and Close take
// it exclusively.
//
// The mapping only replaces the read syscall. Which pages are read, and how
// many, is still decided and counted by the buffer manager above, and every
// wrapper of a File still sees every ReadPage. A Disk does not lend pages:
// a remap moves them.
type Disk struct {
	mu   sync.RWMutex
	f    *os.File
	path string
	n    int
	m    mapping // covers at least n pages
}

// OpenDisk opens (creating if necessary) a disk-backed paged file.
func OpenDisk(path string) (*Disk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // already failing; the open error wins
		return nil, err
	}
	if st.Size()%page.Size != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the page size", path, st.Size())
	}
	d := &Disk{f: f, path: path, n: int(st.Size() / page.Size)}
	if err := d.m.reserve(f, d.n); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: map %s: %w", filepath.Base(path), err)
	}
	return d, nil
}

// wrap adds the file and page context a raw os error lacks.
func (d *Disk) wrap(op string, id page.ID, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("storage: %s page %d of %s: %w", op, id, filepath.Base(d.path), err)
}

// ReadPage implements File.
func (d *Disk) ReadPage(id page.ID, p *page.Page) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := checkBounds(id, d.n); err != nil {
		return err
	}
	return d.wrap("read", id, d.m.read(p[:], int64(id)*page.Size))
}

// ReadPages implements File, copying the run out page by page.
func (d *Disk) ReadPages(id page.ID, ps []page.Page) error {
	if len(ps) == 0 {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := checkBounds(id, d.n); err != nil {
		return err
	}
	if err := checkBounds(id+page.ID(len(ps))-1, d.n); err != nil {
		return err
	}
	for i := range ps {
		pid := id + page.ID(i)
		if err := d.m.read(ps[i][:], int64(pid)*page.Size); err != nil {
			return d.wrap("read", pid, err)
		}
	}
	return nil
}

// WritePage implements File.
func (d *Disk) WritePage(id page.ID, p *page.Page) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := checkBounds(id, d.n); err != nil {
		return err
	}
	_, err := d.f.WriteAt(p[:], int64(id)*page.Size)
	return d.wrap("write", id, err)
}

// Allocate implements File. The mapping grows first, so a failed remap
// leaves the file as it was.
func (d *Disk) Allocate() (page.ID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.m.reserve(d.f, d.n+1); err != nil {
		return page.Nil, d.wrap("map for allocate", page.ID(d.n), err)
	}
	var zero page.Page
	if _, err := d.f.WriteAt(zero[:], int64(d.n)*page.Size); err != nil {
		return page.Nil, d.wrap("allocate", page.ID(d.n), err)
	}
	d.n++
	return page.ID(d.n - 1), nil
}

// NumPages implements File.
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// Truncate implements File. The mapping keeps its size: no page past the
// new end is read, and Allocate refills it through the file.
func (d *Disk) Truncate() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncate %s: %w", filepath.Base(d.path), err)
	}
	d.n = 0
	return nil
}

// Close implements File.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	unmapErr := d.m.release()
	// The statement path reaches File.Close only for memory-backed query
	// temporaries; real disk files are closed on designated flush paths
	// (destroy, modify, Database.Close). The call-graph analysis cannot
	// separate the implementations behind the interface, hence:
	//tdbvet:ignore latchorder only memory-backed temporaries are closed under the statement lock; disk closes happen on flush paths
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", filepath.Base(d.path), err)
	}
	if unmapErr != nil {
		return fmt.Errorf("storage: unmap %s: %w", filepath.Base(d.path), unmapErr)
	}
	return nil
}
