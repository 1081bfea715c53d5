package wal

import (
	"fmt"
	"slices"
	"sync"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// LoggedFile wraps a storage.File so that no page reaches the data file
// before the log holds it — the WAL invariant, kept by never writing
// during statements at all. WritePage parks the page in memory; ReadPage
// and ReadPages serve parked pages before the file. A commit
// (Manager.Commit) logs the parked pages of the files it wrote that
// changed since they were last logged, and a checkpoint
// (Manager.WriteBack) is the only writer of the data file.
//
// It sits directly above the raw file and below both the buffer manager's
// I/O counters and any fault-injection wrapper, so parking is invisible to
// the paper's page accounting — the buffer still counts every write — and
// injected faults still hit the outermost layer first. During replay
// (Manager.SetRecovering) writes pass straight through: recovery writes
// what the log already holds.
type LoggedFile struct {
	name  string
	inner storage.File
	m     *Manager

	mu sync.Mutex
	// parked holds, by page ID, the pages written since the last
	// checkpoint; nil where the data file's page is current.
	parked []*parked
	n      int // non-nil entries of parked
	// unlogged lists the parked pages written since they were last
	// logged, in first-write order: what the next commit of the file logs.
	unlogged []page.ID
}

// parked is one page held back from the data file until the next
// checkpoint.
type parked struct {
	pg     page.Page
	logged bool // pg is the image the log last recorded for the page
}

// Logged wraps f so its page writes flow through the log.
func Logged(name string, f storage.File, m *Manager) *LoggedFile {
	l := &LoggedFile{name: name, inner: f, m: m}
	m.register(l)
	return l
}

// ReadPage implements storage.File.
func (l *LoggedFile) ReadPage(id page.ID, p *page.Page) error {
	if l.serve(id, p) {
		return nil
	}
	return l.inner.ReadPage(id, p)
}

// serve copies page id into p if it is parked.
func (l *LoggedFile) serve(id page.ID, p *page.Page) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.lookup(id)
	if e == nil {
		return false
	}
	copy(p[:], e.pg[:])
	return true
}

// lookup returns the parked page id, or nil. l.mu held.
func (l *LoggedFile) lookup(id page.ID) *parked {
	if id < 0 || int(id) >= len(l.parked) {
		return nil
	}
	return l.parked[id]
}

// park returns the entry for page id, making an empty one if there is
// none. l.mu held.
func (l *LoggedFile) park(id page.ID) *parked {
	if n := int(id) + 1; n > len(l.parked) {
		// Entries past len are nil: fresh, or cleared by dropFrom.
		l.parked = slices.Grow(l.parked, n-len(l.parked))[:n]
	}
	e := l.parked[id]
	if e == nil {
		e = new(parked)
		l.parked[id] = e
		l.n++
	}
	return e
}

// ReadPages implements storage.File: one read of the file, with parked
// pages laid over it.
func (l *LoggedFile) ReadPages(id page.ID, ps []page.Page) error {
	if err := l.inner.ReadPages(id, ps); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	for i := range ps {
		if e := l.lookup(id + page.ID(i)); e != nil {
			copy(ps[i][:], e.pg[:])
		}
	}
	return nil
}

// WritePage implements storage.File by parking the page; it is the only
// way a page reaches the log. Writing the exact image last logged for the
// page changes nothing: that is a frame a commit wrote through, evicted or
// written through again unchanged since.
func (l *LoggedFile) WritePage(id page.ID, p *page.Page) error {
	if l.m.recovering.Load() {
		return l.inner.WritePage(id, p)
	}
	if len(l.name) > maxName {
		return fmt.Errorf("wal: relation name %q too long to log", l.name[:32]+"...")
	}
	if n := l.inner.NumPages(); id < 0 || int(id) >= n {
		return fmt.Errorf("wal: write of page %d of %s out of range [0,%d)", id, l.name, n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.lookup(id)
	if e != nil && e.logged && e.pg == *p {
		return nil
	}
	if e == nil || e.logged {
		l.unlogged = append(l.unlogged, id)
	}
	e = l.park(id)
	copy(e.pg[:], p[:])
	e.logged = false
	return nil
}

// encode appends to buf the image records, under transaction txn, of
// every page parked since it was last logged, in first-write order. The
// caller holds l.m.mu.
func (l *LoggedFile) encode(buf []byte, txn uint64) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range l.unlogged {
		buf = appendImage(buf, txn, l.name, id, &l.parked[id].pg)
	}
	return buf
}

// logged records that what encode appended is now in the log.
func (l *LoggedFile) logged() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range l.unlogged {
		l.parked[id].logged = true
	}
	l.unlogged = l.unlogged[:0]
}

// writeBack writes every parked page to the data file in page order and
// empties the parked set. On a write error every page stays parked, to be
// written again by the next checkpoint.
func (l *LoggedFile) writeBack() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, e := range l.parked {
		if e == nil {
			continue
		}
		if err := l.inner.WritePage(page.ID(id), &e.pg); err != nil {
			return err
		}
	}
	l.dropFrom(0)
	return nil
}

// Allocate implements storage.File. Extension itself is not logged: a
// fresh page is zero, and replay re-extends files as it applies images.
func (l *LoggedFile) Allocate() (page.ID, error) { return l.inner.Allocate() }

// NumPages implements storage.File.
func (l *LoggedFile) NumPages() int { return l.inner.NumPages() }

// Shrink implements storage.File, dropping the parked pages from n on with
// the file's. A failed statement shrinks a file to give back the pages it
// allocated, which no commit logged; DDL empties one, and ends in a full
// checkpoint that empties the log — nothing to redo.
func (l *LoggedFile) Shrink(n int) error {
	if err := l.inner.Shrink(n); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropFrom(n)
	return nil
}

// Close implements storage.File. A closed file leaves commits and
// checkpoints; pages still parked are dropped with it (Database.Close
// writes them back first, destroy and modify discard the file).
func (l *LoggedFile) Close() error {
	l.m.forget(l)
	l.mu.Lock()
	l.dropFrom(0)
	l.mu.Unlock()
	return l.inner.Close()
}

// dropFrom discards the parked pages from n on. l.mu held.
func (l *LoggedFile) dropFrom(n int) {
	for id := n; id < len(l.parked); id++ {
		if l.parked[id] != nil {
			l.parked[id] = nil // park reads entries past len as nil
			l.n--
		}
	}
	l.parked = l.parked[:min(n, len(l.parked))]
	l.unlogged = slices.DeleteFunc(l.unlogged, func(id page.ID) bool { return int(id) >= n })
}
