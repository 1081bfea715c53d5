package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"tdbms/internal/btree"
	"tdbms/internal/buffer"
	"tdbms/internal/catalog"
	"tdbms/internal/hashfile"
	"tdbms/internal/isam"
	"tdbms/internal/page"
	"tdbms/internal/temporal"
)

// walRelMeta is the per-relation slice of a commit record's metadata: the
// access-method descriptor whose in-memory copy the statement may have
// moved (B-tree root, hash directory geometry, ISAM overflow map). The
// catalog sidecar persists the same descriptors, but only at checkpoints;
// carrying them on every commit lets recovery reattach the relation
// exactly as the last committed statement left it.
type walRelMeta struct {
	Method string         `json:"method"`
	Hash   *hashfile.Meta `json:"hash,omitempty"`
	Isam   *isam.Meta     `json:"isam,omitempty"`
	Btree  *btree.Meta    `json:"btree,omitempty"`
}

// walEnd is the commit metadata an End record carries: the logical clock
// at commit and the descriptors of the relations the statement wrote.
type walEnd struct {
	Now  int64                 `json:"now"`
	Rels map[string]walRelMeta `json:"rels,omitempty"`
}

// walEndMeta encodes commit metadata for the given roots; nil means every
// open relation (the DDL checkpoint). Two-level stores are skipped — they
// cannot be persisted, so there is nothing recovery could reattach.
func (db *Database) walEndMeta(roots []*relHandle) []byte {
	e := walEnd{Now: int64(db.clock.Now()), Rels: map[string]walRelMeta{}}
	add := func(h *relHandle) {
		conv, ok := h.src.(*conventional)
		if !ok {
			return
		}
		rm := walRelMeta{Method: h.desc.Method.String()}
		switch f := conv.file.(type) {
		case *hashfile.File:
			m := f.Meta()
			rm.Hash = &m
		case *isam.File:
			m := f.Meta()
			rm.Isam = &m
		case *btree.File:
			m := f.Meta()
			rm.Btree = &m
		}
		e.Rels[strings.ToLower(h.desc.Name)] = rm
	}
	if roots == nil {
		for _, h := range db.rels {
			add(h)
		}
	} else {
		for _, h := range roots {
			add(h)
		}
	}
	data, err := json.Marshal(e)
	if err != nil {
		// The meta types are plain structs of numbers and strings; this
		// cannot fail. An empty meta only loses the descriptor refresh.
		return nil
	}
	return data
}

// walCommit is the commit protocol of one write statement, run while its
// exclusive relation latches are still held: write the dirty frames of the
// written relations through to their logged files, and log, in one append,
// every page those files parked since it was last logged and the end
// record. The frames stay dirty and uncounted; if the append fails, the
// transaction is uncommitted and its pages stay parked and unlogged, to be
// logged by a later commit or checkpoint. It returns the log tail the
// statement must see synced to be durable.
func (c *Conn) walCommit(roots []*relHandle) (int64, error) {
	db := c.Database
	files, err := writeThrough(roots)
	if err != nil {
		return 0, err
	}
	return db.wal.Commit(files, db.walEndMeta(roots))
}

// writeThrough writes the dirty frames of the given relations through to
// their logged files (buffer.Buffered.WriteDirty) and returns the files'
// names: what a commit of those relations logs. Two-level stores are
// skipped — they are not persisted, so there is nothing to redo — and so
// are secondary indexes, which are not logged and are rebuilt on open.
func writeThrough(hs []*relHandle) ([]string, error) {
	var files []string
	for _, h := range hs {
		conv, ok := h.src.(*conventional)
		if !ok {
			continue
		}
		if err := conv.buf.WriteDirty(); err != nil {
			return nil, err
		}
		files = append(files, conv.buf.Name())
	}
	return files, nil
}

// walWaitDurable blocks until the log through lsn is durable, sharing the
// sync with every concurrently committing session (group commit). It runs
// after the statement's relation latches are released, so other writers of
// the same relations commit — and join the same sync — while this one
// waits.
//
//tdbvet:flushpath the commit-durability sync is the designated log I/O point of the statement path; it runs after the relation latches are released
func (c *Conn) walWaitDurable(lsn int64) error {
	return c.Database.wal.WaitDurable(lsn)
}

// SetSyncCommit sets this session's commit durability on a WAL database:
// true (the default) syncs — and group-commits — every acknowledged
// write; false acknowledges without waiting, an async commit that a crash
// may lose, but never tears.
func (c *Conn) SetSyncCommit(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.asyncCommit = !on
}

// walLoadCommit commits a bulk load whose buffers were flushed: the
// relation's parked pages and the end record in one append, then the
// group-committed sync. Unlike a
// statement, a load waits with its relation latch held: it is a bulk
// administrative path, not a concurrent-commit one.
//
//tdbvet:flushpath the bulk load's commit sync is its designated log I/O point; loads are administrative and hold their relation exclusively throughout
func (db *Database) walLoadCommit(h *relHandle) error {
	hs := []*relHandle{h}
	files, err := writeThrough(hs)
	if err != nil {
		return err
	}
	end, err := db.wal.Commit(files, db.walEndMeta(hs))
	if err != nil {
		return err
	}
	return db.wal.WaitDurable(end)
}

// walCheckpointLocked is the full checkpoint ending every DDL statement
// (ddl set) and Close on a WAL database: flush every buffer, commit the
// DDL with a full metadata record, write every parked page back, persist
// the catalog, and clear the log. The catalog is written twice around the
// log reset so every crash point is covered: first pointing replay at the
// (empty) region past the synced tail, then — once the log is empty —
// back at zero, so records appended after the reset are replayed. Caller
// holds the schema latch exclusively.
//
//tdbvet:flushpath the DDL/Close checkpoint flushes, syncs, writes back, and truncates the log while the schema latch drains every statement
func (db *Database) walCheckpointLocked(ddl bool) error {
	hs := make([]*relHandle, 0, len(db.rels))
	for _, h := range db.rels {
		for _, b := range h.buffers() {
			if err := b.Flush(); err != nil {
				return err
			}
		}
		hs = append(hs, h)
	}
	if ddl {
		// Name order keeps the log of a DDL deterministic.
		sort.Slice(hs, func(i, j int) bool { return hs[i].desc.Name < hs[j].desc.Name })
		files, err := writeThrough(hs)
		if err != nil {
			return err
		}
		if _, err := db.wal.Commit(files, db.walEndMeta(nil)); err != nil {
			return err
		}
	}
	if err := db.wal.WriteBack(); err != nil {
		return err
	}
	db.walStart = db.wal.Tail()
	if err := db.saveCatalog(); err != nil {
		return err
	}
	if err := db.wal.Reset(); err != nil {
		return err
	}
	db.walStart = 0
	return db.saveCatalog()
}

// pendingRel is one relation mid-reattach: descriptor and storage are
// open, the access method is not yet constructed — the window recovery
// needs, since replay writes raw pages and may override the saved
// access-method descriptor with a later committed one.
type pendingRel struct {
	sr   *savedRelation
	desc *catalog.Relation
	buf  *buffer.Buffered
	file storageFile
}

// recoverWAL replays the log suffix past the last checkpoint onto the
// still-method-less relation files: committed images are redone (last
// write wins), torn tails and images without an end record discarded, and
// committed end records re-apply the clock and access-method descriptors.
// Replay writes through the same wrapped files the buffers use (so
// injected faults hit it like any other I/O) straight to the data files —
// in recovery mode LoggedFile parks nothing — and it never truncates the log — a crash during recovery just recovers
// again, idempotently. It reports whether the log held anything at all.
func (db *Database) recoverWAL(start int64, pends []*pendingRel) (bool, error) {
	m := db.wal
	size, err := m.LogSize()
	if err != nil {
		return false, err
	}
	if size == 0 {
		return false, nil
	}
	m.SetRecovering(true)
	defer m.SetRecovering(false)
	rec, err := m.Resolve(start)
	if err != nil {
		return true, err
	}
	byName := make(map[string]*pendingRel, len(pends))
	for _, p := range pends {
		byName[strings.ToLower(p.sr.Name)] = p
	}
	for _, k := range rec.Order {
		p, ok := byName[strings.ToLower(k.Rel)]
		if !ok {
			continue // the relation was destroyed after these records
		}
		img := rec.Pages[k]
		for p.file.NumPages() <= int(k.ID) {
			if _, err := p.file.Allocate(); err != nil {
				return true, fmt.Errorf("core: wal replay extending %s: %w", k.Rel, err)
			}
		}
		if err := p.file.WritePage(k.ID, img); err != nil {
			return true, fmt.Errorf("core: wal replay of %s page %d: %w", k.Rel, k.ID, err)
		}
	}
	for _, meta := range rec.Ends {
		if len(meta) == 0 {
			continue
		}
		var e walEnd
		if err := json.Unmarshal(meta, &e); err != nil {
			return true, fmt.Errorf("core: corrupt wal commit metadata: %w", err)
		}
		if t := temporal.Time(e.Now); t > db.clock.Now() {
			db.clock.Set(t)
		}
		for name, rm := range e.Rels {
			p, ok := byName[strings.ToLower(name)]
			if !ok {
				continue
			}
			p.sr.Hash, p.sr.Isam, p.sr.Btree = rm.Hash, rm.Isam, rm.Btree
		}
	}
	return true, nil
}

// storageFile is the slice of storage.File recovery needs; it keeps
// pendingRel decoupled from the storage import in this file's signatures.
type storageFile interface {
	WritePage(id page.ID, p *page.Page) error
	Allocate() (page.ID, error)
	NumPages() int
}
