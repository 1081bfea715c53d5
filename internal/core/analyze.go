package core

import (
	"tdbms/internal/am"
	"tdbms/internal/catalog"
	"tdbms/internal/page"
	"tdbms/internal/tquel"
)

// execAnalyze rebuilds optimizer statistics from a full scan: one relation
// when named, every relation otherwise. Statistics then stay fresh through
// the incremental DML hooks (statNote*) until a bulk reorganization
// (modify, copy from, two-level conversion) discards them.
func (db *Conn) execAnalyze(s *tquel.AnalyzeStmt) (*Result, error) {
	names := []string{s.Rel}
	if s.Rel == "" {
		names = db.cat.List()
	}
	for _, name := range names {
		h, err := db.handle(name)
		if err != nil {
			return nil, err
		}
		if err := db.rebuildStats(h); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(names)}, nil
}

// rebuildStats recomputes a relation's statistics with one sequential
// scan, classifying each stored version as current or history and, when
// the relation has secondary indexes, collecting per-index distinct key
// counts in the same pass. Caller holds the relation's exclusive latch.
func (db *Conn) rebuildStats(h *relHandle) error {
	desc := h.desc
	st := catalog.NewStats()
	key, keyErr := chainKey(desc)
	keyed := keyErr == nil

	type idxAcc struct {
		attr     int
		distinct map[int64]struct{}
	}
	var accs map[string]*idxAcc
	if len(h.indexes) > 0 {
		accs = make(map[string]*idxAcc, len(h.indexes))
		for name, ix := range h.indexes {
			if i := desc.Schema.Index(ix.Config().Attr); i >= 0 {
				accs[name] = &idxAcc{attr: i, distinct: make(map[int64]struct{})}
			}
		}
	}

	if err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
		var k int64
		if keyed {
			k = key.Extract(tup)
		}
		if isCurrentTuple(desc, tup) {
			st.NoteInsert(k, keyed)
		} else {
			st.NoteHistoryInsert(k, keyed)
		}
		for _, a := range accs {
			a.distinct[desc.Schema.Int(tup, a.attr)] = struct{}{}
		}
		return nil
	}); err != nil {
		return err
	}
	st.Pages = int64(h.src.NumPages())
	// Every stored version is indexed, so entries track the version count;
	// distinct key counts come from the scan just taken. Index selectivity
	// is rebuilt here only — DML keeps the counters above fresh but leaves
	// these until the next ANALYZE.
	for name, a := range accs {
		st.SetIndex(name, catalog.IndexStats{
			Entries:  st.Versions,
			Distinct: int64(len(a.distinct)),
			Pages:    int64(h.indexes[name].Pages()),
		})
	}
	desc.Stat = st
	return nil
}

// --- incremental maintenance -------------------------------------------
//
// The DML paths below keep Versions/Current and the chain-length map in
// step with every successful mutation, so estimates stay usable between
// ANALYZE runs. All run under the relation's exclusive latch. Page counts
// and index selectivities drift until the next rebuild.

// statKey resolves a stored tuple's chain key for stat bookkeeping.
func statKey(h *relHandle, tup []byte) (int64, bool) {
	key, err := chainKey(h.desc)
	if err != nil {
		return 0, false
	}
	return key.Extract(tup), true
}

// statNoteInsert records a fresh current version.
func statNoteInsert(h *relHandle, tup []byte) {
	st := h.desc.Stat
	if st == nil {
		return
	}
	k, keyed := statKey(h, tup)
	st.NoteInsert(k, keyed)
}

// statNoteDelete mirrors deleteVersion's type-specific effect: outright
// removal (static, historical event), closing into history (rollback,
// historical interval, temporal event), or closing plus the valid-to
// marker version (temporal interval).
func statNoteDelete(h *relHandle, tup []byte) {
	st := h.desc.Stat
	if st == nil {
		return
	}
	k, keyed := statKey(h, tup)
	switch h.desc.Type {
	case catalog.Static:
		st.NoteRemove(k, keyed)
	case catalog.Historical:
		if h.desc.Model == catalog.ModelEvent {
			st.NoteRemove(k, keyed)
		} else {
			st.NoteClose()
		}
	case catalog.Rollback:
		st.NoteClose()
	case catalog.Temporal:
		st.NoteClose()
		if h.desc.Model == catalog.ModelInterval {
			st.NoteHistoryInsert(k, keyed)
		}
	}
}

// statNoteUndelete reverses statNoteDelete when a delete's undo runs.
func statNoteUndelete(h *relHandle, tup []byte) {
	st := h.desc.Stat
	if st == nil {
		return
	}
	k, keyed := statKey(h, tup)
	switch h.desc.Type {
	case catalog.Static:
		st.NoteInsert(k, keyed)
	case catalog.Historical:
		if h.desc.Model == catalog.ModelEvent {
			st.NoteInsert(k, keyed)
		} else {
			st.NoteReopen()
		}
	case catalog.Rollback:
		st.NoteReopen()
	case catalog.Temporal:
		st.NoteReopen()
		if h.desc.Model == catalog.ModelInterval {
			st.NoteHistoryRemove(k, keyed)
		}
	}
}

// statNoteReplaceImage records an in-place overwrite of a current version.
func statNoteReplaceImage(h *relHandle, oldTup, newTup []byte) {
	st := h.desc.Stat
	if st == nil {
		return
	}
	oldKey, keyed := statKey(h, oldTup)
	if !keyed {
		return
	}
	newKey, _ := statKey(h, newTup)
	st.NoteReplaceImage(oldKey, newKey, keyed)
}
