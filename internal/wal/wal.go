// Package wal implements the write-ahead log: an append-only redo log of
// page images layered between the buffer manager and the storage files.
//
// The engine runs no-steal / no-force (Haerder & Reuter's terms): a data
// file never receives a page a commit has not logged, and a commit never
// waits for a data-file write. LoggedFile.WritePage is the only way a page
// reaches the log: it parks the page in memory, whether a statement's
// eviction wrote it or its commit wrote a dirty frame through; a commit
// logs, in one append, the pages of the files it wrote that changed since
// they were last logged; and only a checkpoint (WriteBack) writes parked
// pages to the data files, after the log holding them is synced. Nothing
// ever has to be undone, so the log is redo-only.
//
// The log is a sequence of self-describing records, each framed as
//
//	[4 bytes  payload length, little endian]
//	[4 bytes  CRC-32 (IEEE) of the payload]
//	[payload]
//
// so that a torn tail — a crash mid-append — is detected by an impossible
// length or a checksum mismatch and everything at and past it is
// discarded. A record's LSN is its byte offset in the log, and recovery
// applies records in LSN order; pages carry no LSN.
//
// Two record types exist. An image record carries a page's redo image
// tagged with the transaction that wrote it; its flags byte is always 0
// (the retired steal/undo format set bit 0 and appended a before-image,
// which recovery now rejects with ErrUndoFormat). An end record marks the
// transaction committed and carries the engine's commit metadata (clock
// position and access-method descriptors) opaquely. Recovery keeps the
// committed images, last write winning; images of the background
// transaction 0 (checkpoint leftovers) count as committed.
//
// Group commit: WaitDurable elects the first waiter as leader; it performs
// one Sync covering the log tail, and every statement whose end record
// fell at or before that tail returns without syncing again.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// Record types.
const (
	recImage = 1 // page image: flags (0), relation, page ID, image
	recEnd   = 2 // transaction end: opaque commit metadata
)

const (
	frameHeader = 8 // length + CRC
	// maxPayload bounds a structurally plausible record; a larger length
	// field can only be a torn or corrupt frame.
	maxPayload = 4 * page.Size
	// minPayload is the smallest well-formed payload: type byte + txn.
	minPayload = 9
	// maxName bounds a relation name, so every image record stays well
	// under maxPayload.
	maxName = 1 << 10
	// flagBefore marks an image record of the retired undo format.
	flagBefore = 1
)

// ErrUndoFormat reports a log written by the retired steal/undo format,
// whose flushed pages carried before-images. Redo-only recovery cannot
// replay it; it is not treated as a torn tail, because dropping it would
// silently drop committed work.
var ErrUndoFormat = errors.New("wal: log holds a before-image record of the retired steal/undo format, which redo-only recovery cannot replay")

// Record is one decoded log record.
type Record struct {
	LSN   int64
	Type  byte
	Txn   uint64
	Rel   string     // image records: relation file the page belongs to
	Page  page.ID    // image records: page within that file
	Image *page.Page // image records: the logged content
	Meta  []byte     // end records: opaque commit metadata
}

// Manager serializes appends to one log file, tracks the logical tail, and
// knows every open LoggedFile, whose parked pages commits log and
// checkpoints write back. The tail only advances when an append fully
// succeeds, so a failed or torn append is overwritten by the next one.
// Lock order: syncMu (the group-commit leader latch) before mu before any
// LoggedFile's mu; mu is held across no I/O other than the positioned log
// write.
type Manager struct {
	mu      sync.Mutex
	log     storage.Log
	tail    int64 // next append offset; all bytes below are well-formed
	synced  int64 // all bytes below are on stable storage
	nextTxn uint64
	files   map[string]*LoggedFile // open logged files by lower-case name
	buf     []byte                 // encoding buffer of the next append, reused

	recovering atomic.Bool // replay in progress: LoggedFile writes pass through

	syncMu sync.Mutex // group-commit leader latch
}

// NewManager returns a manager over the given log. The caller must either
// replay or Reset the log before the first append.
func NewManager(l storage.Log) *Manager {
	return &Manager{log: l, files: map[string]*LoggedFile{}}
}

// SetRecovering flips replay mode: while set, LoggedFile writes go straight
// to the data files (replay must not re-log or park what it redoes).
func (m *Manager) SetRecovering(on bool) { m.recovering.Store(on) }

// Tail reports the logical end of the log.
func (m *Manager) Tail() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tail
}

// LogSize reports the physical size of the underlying log file — what a
// cold open has to scan, as opposed to Tail, which tracks appends made
// through this manager.
func (m *Manager) LogSize() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Size()
}

// Commit logs one transaction in a single append: for each of the named
// files, the image of every page parked since it was last logged, in
// first-write order, then an end record carrying meta. The caller first
// writes the statement's dirty frames through to those files
// (buffer.Buffered.WriteDirty), so everything the transaction wrote is
// parked. It returns the new tail — the offset the committer must see
// synced for the transaction to be durable. No page of the named files may
// be written while Commit runs: the caller holds their relations
// exclusively.
func (m *Manager) Commit(files []string, meta []byte) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := make([]*LoggedFile, len(files))
	for i, name := range files {
		f := m.files[strings.ToLower(name)]
		if f == nil {
			return 0, fmt.Errorf("wal: commit writes %q, which is not an open logged file", name)
		}
		if len(f.name) > maxName {
			return 0, fmt.Errorf("wal: relation name %q too long to log", f.name[:32]+"...")
		}
		fs[i] = f
	}
	m.nextTxn++
	txn := m.nextTxn
	buf := m.buf[:0]
	for _, f := range fs {
		buf = f.encode(buf, txn)
	}
	buf = appendEnd(buf, txn, meta)
	m.buf = buf
	if err := m.writeLocked(buf); err != nil {
		return 0, err
	}
	for _, f := range fs {
		f.logged()
	}
	return m.tail, nil
}

// WriteBack is the checkpoint: it logs every page parked since it was last
// logged as the background transaction 0 (which recovery treats as
// committed) in one append, syncs the log, and then writes every parked
// page to its data file in page order, emptying the parked sets. Data
// files are written nowhere else. The caller holds the database
// exclusively.
func (m *Manager) WriteBack() error {
	files, err := m.logLeftovers()
	if err != nil {
		return err
	}
	if err := m.Sync(); err != nil {
		return err
	}
	for _, f := range files {
		if err := f.writeBack(); err != nil {
			return err
		}
	}
	return nil
}

// logLeftovers is WriteBack's append, and returns the open files in name
// order.
func (m *Manager) logLeftovers() ([]*LoggedFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	files := make([]*LoggedFile, 0, len(m.files))
	for _, f := range m.files {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	buf := m.buf[:0]
	for _, f := range files {
		buf = f.encode(buf, 0)
	}
	m.buf = buf
	if len(buf) == 0 {
		return files, nil
	}
	if err := m.writeLocked(buf); err != nil {
		return nil, err
	}
	for _, f := range files {
		f.logged()
	}
	return files, nil
}

// writeLocked writes encoded records at the tail in one positioned write.
// m.mu held.
func (m *Manager) writeLocked(buf []byte) error {
	if _, err := m.log.WriteAt(buf, m.tail); err != nil {
		return fmt.Errorf("wal: append at %d: %w", m.tail, err)
	}
	m.tail += int64(len(buf))
	return nil
}

// register makes f known to commits and checkpoints.
func (m *Manager) register(f *LoggedFile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[strings.ToLower(f.name)] = f
}

// forget drops a closed file.
func (m *Manager) forget(f *LoggedFile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key := strings.ToLower(f.name); m.files[key] == f {
		delete(m.files, key)
	}
}

// appendImage encodes one image record after buf.
func appendImage(buf []byte, txn uint64, rel string, id page.ID, pg *page.Page) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, recImage)
	buf = binary.LittleEndian.AppendUint64(buf, txn)
	buf = append(buf, 0) // flags: a redo image only
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rel)))
	buf = append(buf, rel...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(id)))
	buf = append(buf, pg[:]...)
	return seal(buf, start)
}

// appendEnd encodes one end record after buf.
func appendEnd(buf []byte, txn uint64, meta []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, recEnd)
	buf = binary.LittleEndian.AppendUint64(buf, txn)
	buf = append(buf, meta...)
	return seal(buf, start)
}

// seal fills in the frame header of the record encoded at buf[start:].
func seal(buf []byte, start int) []byte {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// Sync forces the log to stable storage — the checkpoint path, which runs
// with the database held exclusively, so no append races the barrier.
func (m *Manager) Sync() error {
	m.mu.Lock()
	tail := m.tail
	m.mu.Unlock()
	if err := m.log.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	m.mu.Lock()
	if tail > m.synced {
		m.synced = tail
	}
	m.mu.Unlock()
	return nil
}

// WaitDurable blocks until the log through lsn is on stable storage,
// batching concurrent waiters into one sync: the first waiter through
// syncMu is the leader and syncs the whole tail; followers that blocked on
// the latch find their lsn already covered and return without syncing.
func (m *Manager) WaitDurable(lsn int64) error {
	m.mu.Lock()
	covered := m.synced >= lsn
	m.mu.Unlock()
	if covered {
		return nil
	}
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	m.mu.Lock()
	covered = m.synced >= lsn
	m.mu.Unlock()
	if covered {
		return nil
	}
	m.mu.Lock()
	tail := m.tail
	m.mu.Unlock()
	if err := m.log.Sync(); err != nil {
		return fmt.Errorf("wal: group commit sync: %w", err)
	}
	m.mu.Lock()
	if tail > m.synced {
		m.synced = tail
	}
	m.mu.Unlock()
	return nil
}

// Reset discards the log: after a checkpoint that wrote every logged page
// back, or after recovery has applied it, nothing in it is needed again.
func (m *Manager) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.log.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	m.tail, m.synced = 0, 0
	return nil
}

// Close releases the log file.
func (m *Manager) Close() error { return m.log.Close() }

// Scan parses records from byte offset from to the end of the log,
// calling fn for each well-formed record in LSN order. It returns the
// offset of the first byte past the last well-formed record — the valid
// tail. A torn or corrupt frame ends the scan without error: it and
// everything past it are the discarded tail of a crashed append. A
// well-formed record of the retired undo format fails with ErrUndoFormat.
// Decoded images share one buffer holding the scanned log.
func (m *Manager) Scan(from int64, fn func(*Record) error) (int64, error) {
	size, err := m.log.Size()
	if err != nil {
		return from, err
	}
	if from >= size {
		return from, nil
	}
	buf := make([]byte, size-from)
	if _, err := m.log.ReadAt(buf, from); err != nil {
		return from, fmt.Errorf("wal: scan at %d: %w", from, err)
	}
	off := 0
	for off+frameHeader <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		sum := binary.LittleEndian.Uint32(buf[off+4:])
		if n < minPayload || n > maxPayload || off+frameHeader+n > len(buf) {
			break
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		lsn := from + int64(off)
		rec, err := decode(payload)
		if err != nil {
			return lsn, fmt.Errorf("%w (record at %d)", err, lsn)
		}
		if rec == nil {
			break
		}
		rec.LSN = lsn
		if err := fn(rec); err != nil {
			return lsn, err
		}
		off += frameHeader + n
	}
	return from + int64(off), nil
}

// decode parses one payload into a Record. A structurally impossible
// payload yields nil and is treated as part of the torn tail; a record of
// the retired undo format yields ErrUndoFormat.
func decode(payload []byte) (*Record, error) {
	r := &Record{Type: payload[0], Txn: binary.LittleEndian.Uint64(payload[1:])}
	body := payload[minPayload:]
	switch r.Type {
	case recEnd:
		r.Meta = body
		return r, nil
	case recImage:
		if len(body) < 1+2 {
			return nil, nil
		}
		flags := body[0]
		nameLen := int(binary.LittleEndian.Uint16(body[1:]))
		body = body[3:]
		if len(body) < nameLen+4 {
			return nil, nil
		}
		r.Rel = string(body[:nameLen])
		r.Page = page.ID(int32(binary.LittleEndian.Uint32(body[nameLen:])))
		body = body[nameLen+4:]
		if flags&flagBefore != 0 && len(body) == 2*page.Size {
			return nil, ErrUndoFormat
		}
		if flags != 0 || len(body) != page.Size {
			return nil, nil
		}
		r.Image = (*page.Page)(body)
		return r, nil
	default:
		return nil, nil
	}
}

// PageKey names one page of one relation file across the log.
type PageKey struct {
	Rel string
	ID  page.ID
}

// Recovery is the resolved outcome of replaying a log suffix: the final
// image each touched page must hold, the commit metadata of every
// committed transaction in order, and where the valid log ends.
type Recovery struct {
	Pages   map[PageKey]*page.Page
	Order   []PageKey // first-touch order, for deterministic application
	Ends    [][]byte  // committed end payloads in LSN order
	Valid   int64     // offset of the first torn/absent byte
	Records int       // well-formed records scanned
}

// Resolve scans the log from the given offset and folds it into the page
// set recovery must write: the images of committed transactions (the
// background transaction 0 included) in LSN order, last write winning.
// Images without an end record — a commit whose append was torn — are
// dropped; the data files never received them. Applying the result is
// idempotent: it depends only on log content, never on the current state
// of the data files.
func (m *Manager) Resolve(from int64) (*Recovery, error) {
	var images []*Record
	committed := map[uint64]bool{0: true}
	rec := &Recovery{Pages: map[PageKey]*page.Page{}}
	valid, err := m.Scan(from, func(r *Record) error {
		rec.Records++
		switch r.Type {
		case recEnd:
			committed[r.Txn] = true
			rec.Ends = append(rec.Ends, r.Meta)
		case recImage:
			images = append(images, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.Valid = valid
	for _, r := range images {
		if !committed[r.Txn] {
			continue
		}
		k := PageKey{r.Rel, r.Page}
		if _, seen := rec.Pages[k]; !seen {
			rec.Order = append(rec.Order, k)
		}
		rec.Pages[k] = r.Image
	}
	return rec, nil
}
