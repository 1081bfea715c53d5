//go:build unix

package storage

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"

	"tdbms/internal/page"
)

// mapFloor is the smallest mapping, in pages; a mapping doubles from it.
const mapFloor = 256

// mapping is a read-only MAP_SHARED view of a file's first len(b) bytes.
// It may extend past the end of the file: the owner bounds every read by
// its page count, and a page the file no longer has faults (see read).
type mapping struct {
	b []byte
}

// reserve makes the mapping cover at least n pages, replacing it with one
// of twice the size (or more) when it is too small. The caller excludes
// readers. On failure the old mapping stays in place.
func (m *mapping) reserve(f *os.File, n int) error {
	if n*page.Size <= len(m.b) {
		return nil
	}
	c := max(mapFloor, len(m.b)/page.Size)
	for c < n {
		c *= 2
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, c*page.Size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mmap %d pages: %w", c, err)
	}
	old := m.b
	m.b = b
	if old == nil {
		return nil
	}
	return syscall.Munmap(old)
}

// read copies len(dst) bytes at byte offset off out of the mapping. A page
// the file no longer backs (it was cut from outside) or cannot produce (an
// I/O error) arrives as SIGBUS; the copy runs with panic-on-fault set, so
// that becomes this error instead of a crash.
func (m *mapping) read(dst []byte, off int64) (err error) {
	if off+int64(len(dst)) > int64(len(m.b)) {
		return os.ErrClosed // the owner keeps reads inside the mapping until Close
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface {
				error
				Addr() uintptr
			})
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("mapped page unreadable (file shortened or I/O error): %w", fault)
		}
	}()
	copy(dst, m.b[off:off+int64(len(dst))])
	return nil
}

// release unmaps the file. The mapping is empty afterwards.
func (m *mapping) release() error {
	if m.b == nil {
		return nil
	}
	b := m.b
	m.b = nil
	return syscall.Munmap(b)
}
