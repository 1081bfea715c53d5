// Package storage provides the paged-file abstraction beneath the buffer
// manager: a flat, dense array of 1024-byte pages addressed by page ID.
//
// Two backends are provided. Mem keeps pages in memory and is what the
// benchmark harness uses (the paper's metric is page accesses, which the
// buffer manager counts identically for either backend). Disk stores pages
// in an ordinary file via os.File so the same engine can run persistently.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

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
// Page accesses are latched so concurrent readers sharing the file (via
// separate buffer handles) never observe a torn page or a resizing slice.
//
// Every page is its own allocation, so growing the file never moves a page:
// the address Lend hands out stays that page's address until Truncate.
type Mem struct {
	mu    sync.RWMutex
	pages []*page.Page
}

// NewMem returns an empty in-memory paged file.
func NewMem() *Mem { return &Mem{} }

// ReadPage implements File.
func (m *Mem) ReadPage(id page.ID, p *page.Page) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := checkBounds(id, len(m.pages)); err != nil {
		return err
	}
	*p = *m.pages[id]
	return nil
}

// Lend returns the resident page itself instead of a copy of it. The
// caller must not write through the pointer, and must hold whatever keeps
// writers of the file out (the engine's relation latch) for as long as it
// reads through it: WritePage stores into this same memory.
func (m *Mem) Lend(id page.ID) (*page.Page, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := checkBounds(id, len(m.pages)); err != nil {
		return nil, err
	}
	return m.pages[id], nil
}

// ReadPages implements File.
func (m *Mem) ReadPages(id page.ID, ps []page.Page) error {
	if len(ps) == 0 {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := checkBounds(id, len(m.pages)); err != nil {
		return err
	}
	if err := checkBounds(id+page.ID(len(ps))-1, len(m.pages)); err != nil {
		return err
	}
	for i := range ps {
		ps[i] = *m.pages[int(id)+i]
	}
	return nil
}

// WritePage implements File.
func (m *Mem) WritePage(id page.ID, p *page.Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := checkBounds(id, len(m.pages)); err != nil {
		return err
	}
	*m.pages[id] = *p
	return nil
}

// Allocate implements File.
func (m *Mem) Allocate() (page.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, new(page.Page))
	return page.ID(len(m.pages) - 1), nil
}

// NumPages implements File.
func (m *Mem) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Truncate implements File. The pages are dropped, not reused: one may
// still be on loan.
func (m *Mem) Truncate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = nil
	return nil
}

// Close implements File.
func (m *Mem) Close() error { return nil }

// Disk is a File backed by an operating-system file. The page data itself
// is accessed with positioned reads/writes, which the OS serializes; the
// latch guards the page count against concurrent Allocate/Truncate.
type Disk struct {
	mu   sync.RWMutex
	f    *os.File
	path string
	n    int
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
	return &Disk{f: f, path: path, n: int(st.Size() / page.Size)}, nil
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
	_, err := d.f.ReadAt(p[:], int64(id)*page.Size)
	return d.wrap("read", id, err)
}

// ReadPages implements File with one positioned read covering the run.
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
	buf := make([]byte, len(ps)*page.Size)
	if _, err := d.f.ReadAt(buf, int64(id)*page.Size); err != nil {
		return fmt.Errorf("storage: read pages %d..%d of %s: %w",
			id, int(id)+len(ps)-1, filepath.Base(d.path), err)
	}
	for i := range ps {
		copy(ps[i][:], buf[i*page.Size:])
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

// Allocate implements File.
func (d *Disk) Allocate() (page.ID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
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

// Truncate implements File.
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
	// The statement path reaches File.Close only for memory-backed query
	// temporaries; real disk files are closed on designated flush paths
	// (destroy, modify, Database.Close). The call-graph analysis cannot
	// separate the implementations behind the interface, hence:
	//tdbvet:ignore latchorder only memory-backed temporaries are closed under the statement lock; disk closes happen on flush paths
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", filepath.Base(d.path), err)
	}
	return nil
}
