package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tdbms/internal/btree"
	"tdbms/internal/catalog"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/isam"
	"tdbms/internal/secindex"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// Disk-backed databases persist the system catalog to <dir>/catalog.json so
// a later Open can reattach the page files. The prototype kept its catalog
// in (modified) Ingres system relations; a JSON sidecar keeps this
// implementation honest without reimplementing bootstrap relations.
//
// Secondary indexes and two-level stores keep part of their state in memory
// (the hash directory, the version chains) and are not persisted; they are
// rebuilt with `index on` / EnableTwoLevel after reopening. Close (or
// Checkpoint) must run before the process exits for B-tree root metadata to
// be durable.

const catalogFile = "catalog.json"

type savedAttr struct {
	Name string `json:"name"`
	Kind int    `json:"kind"`
	Len  int    `json:"len,omitempty"`
}

type savedRelation struct {
	Name       string      `json:"name"`
	Type       int         `json:"type"`
	Model      int         `json:"model"`
	Attrs      []savedAttr `json:"attrs"`
	Method     string      `json:"method"`
	KeyAttr    string      `json:"keyAttr,omitempty"`
	Fillfactor int         `json:"fillfactor"`

	Hash  *hashfile.Meta `json:"hash,omitempty"`
	Isam  *isam.Meta     `json:"isam,omitempty"`
	Btree *btree.Meta    `json:"btree,omitempty"`

	// Secondary indexes are persisted as definitions and rebuilt by a scan
	// at open (their hash directories live in memory).
	Indexes []savedIndex `json:"indexes,omitempty"`
}

type savedIndex struct {
	Name      string `json:"name"`
	Attr      string `json:"attr"`
	Structure string `json:"structure"`
	Levels    int    `json:"levels"`
}

type savedCatalog struct {
	Version   int             `json:"version"`
	Now       int64           `json:"now"`
	Relations []savedRelation `json:"relations"`

	// WalStart is where write-ahead-log replay begins: records below it
	// describe pages whose content the data files already hold. Fuzzy
	// checkpoints raise it to the log tail once every logged page is
	// written back; full checkpoints (DDL, Close) reset it to zero along
	// with the log.
	WalStart int64 `json:"walStart,omitempty"`
}

// saveCatalog writes the catalog sidecar; a no-op for in-memory databases.
//
//tdbvet:flushpath the catalog sidecar must be replaced atomically while the schema lock is still held, or a reader could reattach a stale catalog
func (db *Database) saveCatalog() error {
	if db.opts.Dir == "" {
		return nil
	}
	sc := savedCatalog{Version: 1, Now: int64(db.clock.Now()), WalStart: db.walStart}
	for _, name := range db.cat.List() {
		h, err := db.handle(name)
		if err != nil {
			return err
		}
		conv, ok := h.src.(*conventional)
		if !ok {
			// Two-level stores hold in-memory version chains; they are a
			// run-time acceleration, not a persistent format.
			return fmt.Errorf("core: relation %s uses a two-level store, which cannot be persisted; rebuild it after reopening", name)
		}
		desc := h.desc
		sr := savedRelation{
			Name:       desc.Name,
			Type:       int(desc.Type),
			Model:      int(desc.Model),
			Method:     desc.Method.String(),
			KeyAttr:    desc.KeyAttr,
			Fillfactor: desc.Fillfactor,
		}
		for _, a := range desc.UserAttrs() {
			sr.Attrs = append(sr.Attrs, savedAttr{Name: a.Name, Kind: int(a.Kind), Len: a.Len})
		}
		switch f := conv.file.(type) {
		case *hashfile.File:
			m := f.Meta()
			sr.Hash = &m
		case *isam.File:
			m := f.Meta()
			sr.Isam = &m
		case *btree.File:
			m := f.Meta()
			sr.Btree = &m
		}
		for _, ix := range h.indexes {
			cfg := ix.Config()
			sr.Indexes = append(sr.Indexes, savedIndex{
				Name:      cfg.Name,
				Attr:      cfg.Attr,
				Structure: cfg.Structure.String(),
				Levels:    cfg.Levels,
			})
		}
		sc.Relations = append(sc.Relations, sr)
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(db.opts.Dir, catalogFile+".tmp")
	//tdbvet:ignore layering catalog sidecar is JSON metadata, not counted page I/O
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(db.opts.Dir, catalogFile))
}

// loadCatalog reattaches the relations described by the sidecar, if any.
func (db *Database) loadCatalog() error {
	if db.opts.Dir == "" {
		return nil
	}
	//tdbvet:ignore layering catalog sidecar is JSON metadata, not counted page I/O
	data, err := os.ReadFile(filepath.Join(db.opts.Dir, catalogFile))
	if errors.Is(err, os.ErrNotExist) {
		// Fresh database: a leftover log (an earlier run that crashed
		// before its first checkpoint) describes relations no catalog
		// knows; discard it so stale records can never replay.
		if db.wal != nil {
			return db.wal.Reset()
		}
		return nil
	}
	if err != nil {
		return err
	}
	var sc savedCatalog
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("core: corrupt catalog sidecar: %w", err)
	}
	if db.wal == nil {
		// A database written under WAL may hold committed state only the
		// log has (commits log page images instead of flushing them).
		// Opening it without replay would silently lose or tear them.
		if sc.WalStart != 0 {
			return fmt.Errorf("core: catalog records a write-ahead-log replay start; reopen with Options.WAL")
		}
		if fi, err := os.Stat(filepath.Join(db.opts.Dir, "wal.log")); err == nil && fi.Size() > 0 {
			return fmt.Errorf("core: %s holds a non-empty write-ahead log; reopen with Options.WAL", db.opts.Dir)
		}
	}
	// Keep the logical clock monotone across sessions: never reopen with a
	// clock behind the one the data was written under.
	if saved := temporal.Time(sc.Now); saved > db.clock.Now() {
		db.clock.Set(saved)
	}
	// First pass: descriptors, buffers, and raw files only. The access
	// methods are constructed after WAL replay — recovery writes raw pages
	// and may override the saved access-method descriptor with a later
	// committed one, so nothing may interpret the files before it runs.
	pends := make([]*pendingRel, 0, len(sc.Relations))
	for i := range sc.Relations {
		sr := &sc.Relations[i]
		attrs := make([]tuple.Attr, len(sr.Attrs))
		for j, a := range sr.Attrs {
			attrs[j] = tuple.Attr{Name: a.Name, Kind: tuple.Kind(a.Kind), Len: a.Len}
		}
		desc, err := db.cat.Create(sr.Name, catalog.DBType(sr.Type), catalog.Model(sr.Model), attrs)
		if err != nil {
			return fmt.Errorf("core: reloading %s: %w", sr.Name, err)
		}
		desc.KeyAttr = sr.KeyAttr
		desc.Fillfactor = sr.Fillfactor
		buf, file, err := db.newBufferFile(sr.Name)
		if err != nil {
			return err
		}
		// Register the handle now (methodless) so a failed Open can close
		// the buffer via the usual cleanup walk.
		db.rels[strings.ToLower(sr.Name)] = &relHandle{
			desc:    desc,
			src:     &conventional{buf: buf},
			indexes: make(map[string]*secindex.Index),
		}
		pends = append(pends, &pendingRel{sr: sr, desc: desc, buf: buf, file: file})
	}
	walActive := sc.WalStart != 0
	if db.wal != nil {
		act, err := db.recoverWAL(sc.WalStart, pends)
		if err != nil {
			return err
		}
		walActive = walActive || act
	}
	// Second pass: attach the access methods over the (possibly replayed)
	// files, using the recovered descriptors.
	for _, p := range pends {
		sr, desc := p.sr, p.desc
		conv := db.rels[strings.ToLower(sr.Name)].src.(*conventional)
		switch {
		case sr.Hash != nil:
			desc.Method = catalog.Hash
			conv.file = hashfile.New(conv.buf, *sr.Hash)
		case sr.Isam != nil:
			desc.Method = catalog.Isam
			conv.file = isam.New(conv.buf, *sr.Isam)
		case sr.Btree != nil:
			desc.Method = catalog.Btree
			conv.file = btree.New(conv.buf, *sr.Btree)
		default:
			desc.Method = catalog.Heap
			conv.file = heapfile.New(conv.buf, desc.Width())
		}
	}
	// Rebuild the persisted index definitions (scan-based, like `index on`).
	// Open is single-threaded, so the default session can run execIndex
	// directly against the root graph.
	c := db.def
	c.active = db.rels
	defer func() { c.active = nil }()
	for _, sr := range sc.Relations {
		for _, si := range sr.Indexes {
			stmt := &tquel.IndexStmt{
				Rel: sr.Name, Name: si.Name, Attr: si.Attr,
				Structure: si.Structure, Levels: si.Levels,
			}
			if _, err := c.execIndex(stmt); err != nil {
				return fmt.Errorf("core: rebuilding index %s on %s: %w", si.Name, sr.Name, err)
			}
		}
	}
	// Epilogue: recovery is complete; persist the recovered catalog and
	// empty the log. The catalog is written twice around the truncation so
	// every crash point replays correctly — first pointing replay past the
	// log's physical end (its records are now reflected in the data files
	// and catalog), then, once the log is empty, back at zero so records
	// appended after this open are replayed. A crash anywhere in between
	// just recovers again: replay never truncates, so it is idempotent.
	if walActive {
		size, err := db.wal.LogSize()
		if err != nil {
			return err
		}
		db.walStart = size
		if err := db.saveCatalog(); err != nil {
			return err
		}
		if err := db.wal.Reset(); err != nil {
			return err
		}
		db.walStart = 0
		if err := db.saveCatalog(); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint flushes every buffer and persists the catalog (including
// mutable B-tree metadata); on a WAL database it is also where committed
// pages reach the data files. Close calls it automatically. Checkpointing a
// closed database fails cleanly instead of writing through released files.
// The exclusive schema latch drains every in-flight statement first.
func (db *Database) Checkpoint() error {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	if db.closed {
		return errClosed
	}
	return db.checkpointLocked()
}

func (db *Database) checkpointLocked() error {
	if db.wal != nil {
		return db.fuzzyCheckpointLocked()
	}
	for _, h := range db.rels {
		for _, b := range h.buffers() {
			if err := b.Flush(); err != nil {
				return err
			}
		}
	}
	return db.saveCatalog()
}

// fuzzyCheckpointLocked writes the data files up to date without
// flushing a frame: write every relation's dirty frames through (parking
// them, dirty and uncounted), log every page parked since it was last
// logged, sync, write every parked page back, and record the log tail as
// the catalog's replay start. Secondary-index and two-level buffers are
// left as they are: neither is logged, and both are rebuilt on open. It
// never truncates the log; DDL, Close, and Open do that with the database
// quiesced.
//
//tdbvet:flushpath the checkpoint writes through, syncs, and writes back while the exclusive schema latch drains every statement
func (db *Database) fuzzyCheckpointLocked() error {
	hs := make([]*relHandle, 0, len(db.rels))
	for _, h := range db.rels {
		hs = append(hs, h)
	}
	if _, err := writeThrough(hs); err != nil {
		return err
	}
	if err := db.wal.WriteBack(); err != nil {
		return err
	}
	db.walStart = db.wal.Tail()
	return db.saveCatalog()
}

// Close checkpoints and releases every file. Closing an already-closed
// database is a no-op.
//
//tdbvet:flushpath close flushes and releases every backing file while holding db.ddl exclusively so no statement can race the shutdown
func (db *Database) Close() error {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	if db.closed {
		return nil
	}
	if db.wal != nil {
		// The full checkpoint: flush everything, log and sync, write
		// every parked page back, persist the catalog, and empty the log.
		// A crash (or injected sync fault) anywhere before the log reset
		// leaves the log intact, and reopen replays it back to exactly the
		// committed state.
		if err := db.walCheckpointLocked(false); err != nil {
			return err
		}
	} else if err := db.checkpointLocked(); err != nil {
		return err
	}
	for _, h := range db.rels {
		for _, b := range h.buffers() {
			if err := b.Close(); err != nil {
				return err
			}
		}
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil {
			return err
		}
	}
	db.closed = true
	db.rels = map[string]*relHandle{}
	db.cat = catalog.New()
	return nil
}
