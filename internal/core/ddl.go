package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tdbms/internal/am"
	"tdbms/internal/btree"
	"tdbms/internal/buffer"
	"tdbms/internal/catalog"
	"tdbms/internal/hashfile"
	"tdbms/internal/heapfile"
	"tdbms/internal/isam"
	"tdbms/internal/page"
	"tdbms/internal/secindex"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
	"tdbms/internal/twolevel"
)

// execCreate creates a relation. The TQuel create decoration maps onto the
// taxonomy of Figure 1: `persistent` requests transaction time,
// `interval`/`event` request valid time.
//
//tdbvet:flushpath create allocates the relation's backing file under the exclusive lock, atomically with the catalog entry
func (db *Conn) execCreate(s *tquel.CreateStmt) (*Result, error) {
	typ := catalog.Static
	model := catalog.ModelNone
	switch {
	case s.Persistent && s.Model != "":
		typ = catalog.Temporal
	case s.Persistent:
		typ = catalog.Rollback
	case s.Model != "":
		typ = catalog.Historical
	}
	if s.Model == "interval" {
		model = catalog.ModelInterval
	} else if s.Model == "event" {
		model = catalog.ModelEvent
	}
	desc, err := db.cat.Create(s.Rel, typ, model, s.Attrs)
	if err != nil {
		return nil, err
	}
	buf, err := db.newBuffer(s.Rel)
	if err != nil {
		_ = db.cat.Destroy(s.Rel) // best-effort rollback on an already-failing path
		return nil, err
	}
	h := &relHandle{
		desc:    desc,
		src:     &conventional{file: heapfile.New(buf, desc.Width()), buf: buf},
		indexes: make(map[string]*secindex.Index),
	}
	db.rels[strings.ToLower(s.Rel)] = h
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// keyFor locates an integer key attribute within the stored tuple.
func keyFor(desc *catalog.Relation, attr string) (am.Key, error) {
	i := desc.Schema.Index(attr)
	if i < 0 {
		return am.Key{}, fmt.Errorf("core: relation %s has no attribute %q", desc.Name, attr)
	}
	a := desc.Schema.Attr(i)
	switch a.Kind {
	case tuple.I1, tuple.I2, tuple.I4, tuple.Temporal:
		return am.Key{Offset: desc.Schema.Offset(i), Width: a.Width()}, nil
	}
	return am.Key{}, fmt.Errorf("core: key attribute %q must be an integer type, is %s", attr, a.Kind)
}

// execModify rebuilds a relation's storage structure, as Ingres's modify
// does: the current contents are unloaded and reloaded into a fresh file of
// the requested organization and fillfactor.
//
//tdbvet:flushpath modify replaces the relation's backing file under the exclusive lock; the relation is offline for the duration
func (db *Conn) execModify(s *tquel.ModifyStmt) (*Result, error) {
	h, err := db.handle(s.Rel)
	if err != nil {
		return nil, err
	}
	if _, two := h.src.(*twoLevelSource); two {
		return nil, fmt.Errorf("core: cannot modify %s while it uses a two-level store", s.Rel)
	}
	if len(h.indexes) > 0 {
		return nil, fmt.Errorf("core: destroy the secondary indexes of %s before modify", s.Rel)
	}
	ff := s.Fillfactor
	if ff == 0 {
		ff = 100
	}
	if s.Method != "heap" && s.KeyAttr == "" {
		return nil, fmt.Errorf("core: modify to %s needs `on <attribute>`", s.Method)
	}

	// Unload everything into memory, then rebuild in place (like Ingres's
	// modify, the relation is offline for the duration; a crash mid-rebuild
	// loses it, as it did in 1985).
	var tuples [][]byte
	if err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
		tuples = append(tuples, bytes.Clone(tup))
		return nil
	}); err != nil {
		return nil, err
	}

	desc := h.desc
	if err := h.src.Buffers()[0].Close(); err != nil {
		return nil, err
	}
	if db.opts.Dir != "" {
		if err := os.Remove(filepath.Join(db.opts.Dir, strings.ToLower(desc.Name)+".tdb")); err != nil {
			return nil, err
		}
	}
	buf, err := db.newBuffer(desc.Name)
	if err != nil {
		return nil, err
	}
	var file am.File
	switch s.Method {
	case "heap":
		hf := heapfile.New(buf, desc.Width())
		for _, t := range tuples {
			if _, err := hf.Insert(t); err != nil {
				return nil, err
			}
		}
		file = hf
	case "hash":
		key, err := keyFor(desc, s.KeyAttr)
		if err != nil {
			return nil, err
		}
		hf, err := hashfile.Build(buf, hashfile.Meta{
			Width:   desc.Width(),
			Key:     key,
			Primary: hashfile.PrimaryPages(len(tuples), desc.Width(), ff),
		})
		if err != nil {
			return nil, err
		}
		for _, t := range tuples {
			if _, err := hf.Insert(t); err != nil {
				return nil, err
			}
		}
		file = hf
	case "isam":
		key, err := keyFor(desc, s.KeyAttr)
		if err != nil {
			return nil, err
		}
		isf, err := isam.Build(buf, desc.Width(), key, ff, tuples)
		if err != nil {
			return nil, err
		}
		file = isf
	case "btree":
		key, err := keyFor(desc, s.KeyAttr)
		if err != nil {
			return nil, err
		}
		bt, err := btree.Build(buf, desc.Width(), key, tuples)
		if err != nil {
			return nil, err
		}
		file = bt
	default:
		return nil, fmt.Errorf("core: unknown storage structure %q", s.Method)
	}
	if err := buf.Flush(); err != nil {
		return nil, err
	}
	h.src = &conventional{file: file, buf: buf}
	desc.Method = map[string]catalog.AccessMethod{
		"heap": catalog.Heap, "hash": catalog.Hash, "isam": catalog.Isam, "btree": catalog.Btree,
	}[s.Method]
	desc.KeyAttr = s.KeyAttr
	desc.Fillfactor = ff
	desc.Stat = nil // page geometry changed wholesale; ANALYZE rebuilds
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return &Result{Affected: len(tuples)}, nil
}

//tdbvet:flushpath destroy removes the relation's backing files under the exclusive lock, atomically with the catalog entry
func (db *Conn) execDestroy(s *tquel.DestroyStmt) (*Result, error) {
	h, err := db.handle(s.Rel)
	if err != nil {
		// `destroy` also removes a secondary index by name, as Quel's did.
		name := strings.ToLower(s.Rel)
		for relName, rh := range db.rels {
			ix, ok := rh.indexes[name]
			if !ok {
				continue
			}
			for _, b := range ix.Buffers() {
				_ = b.Close() // the index is being destroyed with its files
			}
			if db.opts.Dir != "" {
				_ = os.Remove(filepath.Join(db.opts.Dir, relName+"~ix~"+name+".tdb"))
				_ = os.Remove(filepath.Join(db.opts.Dir, relName+"~ixh~"+name+".tdb"))
			}
			delete(rh.indexes, name)
			if err := db.saveCatalog(); err != nil {
				return nil, err
			}
			return &Result{}, nil
		}
		return nil, err
	}
	for _, b := range h.src.Buffers() {
		_ = b.Close() // the relation is being destroyed with its files
	}
	for name, ix := range h.indexes {
		for _, b := range ix.Buffers() {
			_ = b.Close()
		}
		if db.opts.Dir != "" {
			rel := strings.ToLower(s.Rel)
			_ = os.Remove(filepath.Join(db.opts.Dir, rel+"~ix~"+name+".tdb"))
			_ = os.Remove(filepath.Join(db.opts.Dir, rel+"~ixh~"+name+".tdb"))
		}
	}
	if db.opts.Dir != "" {
		_ = os.Remove(filepath.Join(db.opts.Dir, strings.ToLower(s.Rel)+".tdb"))
	}
	if err := db.cat.Destroy(s.Rel); err != nil {
		return nil, err
	}
	delete(db.rels, strings.ToLower(s.Rel))
	// Range bindings over the destroyed relation live in sessions; each
	// session drops its own lazily (Conn.relForVar).
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// isCurrentTuple reports whether a stored tuple is the current version
// under its relation's semantics: open in transaction time and (for
// interval relations) open in valid time.
func isCurrentTuple(desc *catalog.Relation, tup []byte) bool {
	if desc.TE >= 0 && temporal.Time(desc.Schema.Int(tup, desc.TE)) < temporal.Forever {
		return false
	}
	if desc.Model == catalog.ModelInterval && desc.VT >= 0 &&
		temporal.Time(desc.Schema.Int(tup, desc.VT)) < temporal.Forever {
		return false
	}
	return true
}

// execIndex builds a secondary index (Section 6) by scanning the relation.
//
//tdbvet:flushpath index build creates and truncates the index backing files under the exclusive lock; the build is the statement
func (db *Conn) execIndex(s *tquel.IndexStmt) (*Result, error) {
	h, err := db.handle(s.Rel)
	if err != nil {
		return nil, err
	}
	if _, dup := h.indexes[strings.ToLower(s.Name)]; dup {
		return nil, fmt.Errorf("core: index %q already exists", s.Name)
	}
	if !h.desc.Method.StableRIDs() {
		return nil, fmt.Errorf("core: secondary indexes need stable tuple addresses; modify %s to heap, hash, or isam first", s.Rel)
	}
	attrIdx := h.desc.Schema.Index(s.Attr)
	if attrIdx < 0 {
		return nil, fmt.Errorf("core: relation %s has no attribute %q", s.Rel, s.Attr)
	}
	if !h.desc.Schema.Attr(attrIdx).Kind.Numeric() || h.desc.Schema.Attr(attrIdx).Kind == tuple.F4 || h.desc.Schema.Attr(attrIdx).Kind == tuple.F8 {
		return nil, fmt.Errorf("core: index attribute %q must be an integer type", s.Attr)
	}

	// Collect entries: (key, TID, isCurrent).
	type entry struct {
		key     int64
		tid     secindex.TID
		current bool
	}
	var entries []entry
	add := func(it am.Iterator, history bool) error {
		return am.Each(it, func(rid page.RID, tup []byte) error {
			entries = append(entries, entry{
				key:     h.desc.Schema.Int(tup, attrIdx),
				tid:     secindex.TID{History: history, RID: rid},
				current: !history && isCurrentTuple(h.desc, tup),
			})
			return nil
		})
	}
	if two, ok := h.src.(*twoLevelSource); ok {
		if err := add(two.ScanCurrent(), false); err != nil {
			return nil, err
		}
		if err := add(two.HistoryScan(), true); err != nil {
			return nil, err
		}
	} else {
		if err := add(h.src.ScanAll(), false); err != nil {
			return nil, err
		}
	}

	structure := secindex.HeapIdx
	if s.Structure == "hash" {
		structure = secindex.HashIdx
	}
	cfg := secindex.Config{
		Name:      s.Name,
		Attr:      s.Attr,
		Structure: structure,
		Levels:    s.Levels,
	}
	curBuf, err := db.newBuffer(s.Rel + "~ix~" + s.Name)
	if err != nil {
		return nil, err
	}
	// A disk-backed rebuild (including the reopen path) starts clean.
	if err := curBuf.Truncate(); err != nil {
		return nil, err
	}
	var histBuf *buffer.Buffered
	if s.Levels == 2 {
		if histBuf, err = db.newBuffer(s.Rel + "~ixh~" + s.Name); err != nil {
			return nil, err
		}
		if err := histBuf.Truncate(); err != nil {
			return nil, err
		}
	}
	ix, err := secindex.New(cfg, curBuf, histBuf)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.current {
			err = ix.Insert(e.key, e.tid)
		} else {
			err = ix.InsertHistory(e.key, e.tid)
		}
		if err != nil {
			return nil, err
		}
	}
	h.indexes[strings.ToLower(s.Name)] = ix
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return &Result{Affected: len(entries)}, nil
}

// convertToTwoLevel rebuilds a relation as a two-level store: current
// versions in a fresh primary file of the same organization, history
// versions in the history store in their original arrival order (a history
// version arrives when superseded, i.e. at its transaction-stop time; the
// temporal delete marker arrives at its transaction-start time).
//
//tdbvet:flushpath the two-level rebuild runs only on in-memory databases (guarded below), so its buffer churn under the lock never reaches disk
func (db *Conn) convertToTwoLevel(h *relHandle, clustered bool) error {
	desc := h.desc
	if db.opts.Dir != "" {
		return fmt.Errorf("core: the two-level store keeps run-time state in memory and is not available for disk-backed databases")
	}
	if len(h.indexes) > 0 {
		return fmt.Errorf("core: destroy the secondary indexes of %s before enabling the two-level store", desc.Name)
	}

	// History versions are replayed in arrival order; the stable sort
	// preserves scan order within one instant (one update round).
	type hver struct {
		arrival temporal.Time
		tup     []byte
	}
	var current [][]byte
	var history []hver
	distinct := map[int64]bool{}
	var key am.Key
	if desc.KeyAttr != "" {
		var err error
		if key, err = keyFor(desc, desc.KeyAttr); err != nil {
			return err
		}
	}
	if err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
		tup = bytes.Clone(tup)
		if desc.KeyAttr != "" {
			distinct[key.Extract(tup)] = true
		}
		if isCurrentTuple(desc, tup) {
			current = append(current, tup)
			return nil
		}
		arrival := temporal.Forever
		if desc.TE >= 0 {
			if te := temporal.Time(desc.Schema.Int(tup, desc.TE)); te < temporal.Forever {
				arrival = te // superseded at its transaction stop
			} else if desc.TS >= 0 {
				arrival = temporal.Time(desc.Schema.Int(tup, desc.TS)) // marker: born history
			}
		} else if desc.VT >= 0 {
			arrival = temporal.Time(desc.Schema.Int(tup, desc.VT)) // historical relation
		}
		history = append(history, hver{arrival: arrival, tup: tup})
		return nil
	}); err != nil {
		return err
	}
	sort.SliceStable(history, func(i, j int) bool {
		return history[i].arrival < history[j].arrival
	})

	// Fresh primary file with the same organization over current versions.
	pbuf, err := db.newBuffer(desc.Name + "~cur")
	if err != nil {
		return err
	}
	var primary am.File
	switch desc.Method {
	case catalog.Heap:
		hf := heapfile.New(pbuf, desc.Width())
		if desc.KeyAttr != "" {
			hf = heapfile.NewKeyed(pbuf, desc.Width(), key)
		}
		for _, t := range current {
			if _, err := hf.Insert(t); err != nil {
				return err
			}
		}
		primary = hf
	case catalog.Hash:
		hf, err := hashfile.Build(pbuf, hashfile.Meta{
			Width:   desc.Width(),
			Key:     key,
			Primary: hashfile.PrimaryPages(len(current), desc.Width(), desc.Fillfactor),
		})
		if err != nil {
			return err
		}
		for _, t := range current {
			if _, err := hf.Insert(t); err != nil {
				return err
			}
		}
		primary = hf
	case catalog.Isam:
		isf, err := isam.Build(pbuf, desc.Width(), key, desc.Fillfactor, current)
		if err != nil {
			return err
		}
		primary = isf
	case catalog.Btree:
		bt, err := btree.Build(pbuf, desc.Width(), key, current)
		if err != nil {
			return err
		}
		primary = bt
	}

	hbuf, err := db.newBuffer(desc.Name + "~hist")
	if err != nil {
		return err
	}
	mode := twolevel.Simple
	if clustered {
		mode = twolevel.Clustered
	}
	histKey := key
	if desc.KeyAttr == "" {
		// Heap relations chain history by the first attribute.
		histKey = am.Key{Offset: 0, Width: desc.Schema.Attr(0).Width()}
		if histKey.Width > 4 {
			histKey.Width = 4
		}
	}
	store, err := twolevel.New(primary, hbuf, twolevel.Config{
		Key:            histKey,
		Width:          desc.Width(),
		Mode:           mode,
		ClusterBuckets: max(len(distinct), 1),
	})
	if err != nil {
		return err
	}
	for _, v := range history {
		if _, err := store.InsertHistory(v.tup); err != nil {
			return err
		}
	}
	if err := h.src.Buffers()[0].Close(); err != nil {
		return err
	}
	h.src = &twoLevelSource{Store: store, primaryBuf: pbuf, historyBuf: hbuf}
	desc.Stat = nil // storage layout replaced wholesale; ANALYZE rebuilds
	return nil
}
