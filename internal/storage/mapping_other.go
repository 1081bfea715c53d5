//go:build !unix

package storage

import "os"

// mapping is, on a platform without mmap, the file itself: read is a
// positioned read, and there is nothing to map or unmap.
type mapping struct {
	f *os.File
}

func (m *mapping) reserve(f *os.File, _ int) error {
	m.f = f
	return nil
}

func (m *mapping) read(dst []byte, off int64) error {
	_, err := m.f.ReadAt(dst, off)
	return err
}

func (m *mapping) release() error { return nil }
