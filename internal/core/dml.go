package core

import (
	"fmt"
	"slices"
	"strings"

	"tdbms/internal/am"
	"tdbms/internal/catalog"
	"tdbms/internal/exec"
	"tdbms/internal/page"
	"tdbms/internal/plan"
	"tdbms/internal/secindex"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// chainKey resolves the attribute identifying a relation's version chains:
// the storage key when one is declared, else the first user attribute
// (the benchmark's id column) when it is key-shaped.
func chainKey(desc *catalog.Relation) (am.Key, error) {
	keyAttr := desc.KeyAttr
	if keyAttr == "" && desc.NumUserAttrs > 0 {
		keyAttr = desc.Schema.Attr(0).Name
	}
	return keyFor(desc, keyAttr)
}

// setTime writes a temporal attribute by schema index.
func setTime(desc *catalog.Relation, tup []byte, idx int, t temporal.Time) {
	desc.Schema.SetInt(tup, idx, int64(t))
}

// newValidity compiles the valid interval of h's new versions from a DML
// valid clause, with the Section 4 defaults: valid from "now" to "forever"
// (interval relations) or valid at "now" (event relations, whose interval
// is [at, at]). A relation without valid time takes no valid clause.
func (db *Conn) newValidity(h *relHandle, v *tquel.ValidClause, c *compiler) func() (temporal.Interval, error) {
	desc, now := h.desc, db.now()
	event := desc.Model == catalog.ModelEvent
	switch {
	case desc.VF < 0 && v != nil:
		return fail[temporal.Interval](fmt.Errorf("core: %s relation %s takes no valid clause", desc.Type, desc.Name))
	case desc.VF < 0:
		return func() (temporal.Interval, error) { return temporal.Interval{}, nil }
	case v == nil && event:
		return func() (temporal.Interval, error) { return temporal.Interval{From: now, To: now}, nil }
	case v == nil:
		return func() (temporal.Interval, error) { return temporal.Interval{From: now, To: temporal.Forever}, nil }
	case event && v.At == nil:
		return fail[temporal.Interval](fmt.Errorf("core: event relations take `valid at`, not `valid from/to`"))
	case event:
		at := c.instant(v.At, false)
		return func() (temporal.Interval, error) {
			t, _, err := at()
			return temporal.Interval{From: t, To: t}, err
		}
	case v.At != nil:
		return fail[temporal.Interval](fmt.Errorf("core: interval relations take `valid from ... to ...`, not `valid at`"))
	}
	from, to := c.instant(v.From, false), c.instant(v.To, true)
	return func() (temporal.Interval, error) {
		f, _, err := from()
		if err != nil {
			return temporal.Interval{}, err
		}
		t, _, err := to()
		if err != nil {
			return temporal.Interval{}, err
		}
		if f > t {
			return temporal.Interval{}, fmt.Errorf("core: valid interval ends (%s) before it starts (%s)", t, f)
		}
		return temporal.Interval{From: f, To: t}, nil
	}
}

// targets compiles a DML target list: the result builds a new
// user-attribute image from a base tuple. Target names must be user
// attributes.
func (c *compiler) targets(desc *catalog.Relation, targets []tquel.Target) func(base []byte) ([]byte, error) {
	vals := make([]valFn, len(targets))
	for k, t := range targets {
		vals[k] = c.expr(t.Expr)
	}
	return func(base []byte) ([]byte, error) {
		out := slices.Clone(base)
		for k, t := range targets {
			i := desc.Schema.Index(t.Name)
			if i < 0 || i >= desc.NumUserAttrs {
				return nil, fmt.Errorf("core: %s has no user attribute %q (implicit time attributes are set via the valid clause)", desc.Name, t.Name)
			}
			v, err := vals[k]()
			if err != nil {
				return nil, err
			}
			if err := desc.Schema.SetValue(out, i, v); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// --- secondary-index maintenance ---

func indexKey(desc *catalog.Relation, ix *secindex.Index, tup []byte) int64 {
	return desc.Schema.Int(tup, desc.Schema.Index(ix.Config().Attr))
}

func (h *relHandle) indexInsertCurrent(tup []byte, rid page.RID) error {
	for _, ix := range h.indexes {
		if err := ix.Insert(indexKey(h.desc, ix, tup), secindex.TID{RID: rid}); err != nil {
			return err
		}
	}
	return nil
}

func (h *relHandle) indexInsertHistory(tup []byte, tid secTID) error {
	for _, ix := range h.indexes {
		if err := ix.InsertHistory(indexKey(h.desc, ix, tup), secindex.TID{History: tid.history, RID: tid.rid}); err != nil {
			return err
		}
	}
	return nil
}

func (h *relHandle) indexMove(tup []byte, oldRID page.RID, newTID secTID) error {
	for _, ix := range h.indexes {
		err := ix.Move(indexKey(h.desc, ix, tup),
			secindex.TID{RID: oldRID},
			secindex.TID{History: newTID.history, RID: newTID.rid})
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *relHandle) indexRemove(tup []byte, rid page.RID) error {
	for _, ix := range h.indexes {
		if err := ix.Remove(indexKey(h.desc, ix, tup), secindex.TID{RID: rid}); err != nil {
			return err
		}
	}
	return nil
}

// indexMoveBack reverses indexMove: the entry filed under the superseded
// address returns to the current side at its original RID.
func (h *relHandle) indexMoveBack(tup []byte, from secTID, to page.RID) error {
	for _, ix := range h.indexes {
		key := indexKey(h.desc, ix, tup)
		if err := ix.Remove(key, secindex.TID{History: from.history, RID: from.rid}); err != nil {
			return err
		}
		if err := ix.Insert(key, secindex.TID{RID: to}); err != nil {
			return err
		}
	}
	return nil
}

// indexRemoveAt deletes the entries for a version at an arbitrary store
// address (current or history side).
func (h *relHandle) indexRemoveAt(tup []byte, tid secTID) error {
	for _, ix := range h.indexes {
		if err := ix.Remove(indexKey(h.desc, ix, tup), secindex.TID{History: tid.history, RID: tid.rid}); err != nil {
			return err
		}
	}
	return nil
}

// --- statement compensation ---
//
// DML statements are multi-step: a replace closes the old version, moves
// index entries, and inserts the new version, with every step able to fail
// once fault injection is in play. There is no WAL; instead each version's
// mutation is compensated — when a later step fails, the earlier steps are
// reversed in the buffer, so the chain reverts to its pre-statement image
// and the next flush (injected faults are one-shot) persists a consistent
// state. The guarantee is per version chain: after a failed statement every
// chain holds either the old version or the complete new one, never a
// half-applied mix. Two-level stores are exempt — they move superseded
// tuples into a separate history store, cannot persist at all, and a failed
// statement there surfaces the error without compensation.

// undoFn reverses one applied mutation step.
type undoFn func() error

// unwind reverses completed steps in reverse order after err stopped a
// multi-step mutation. A failing undo is reported alongside the original
// error; err stays the wrapped cause so callers can still identify it.
func unwind(err error, undos []undoFn) error {
	for i := len(undos) - 1; i >= 0; i-- {
		if uerr := undos[i](); uerr != nil {
			if err == nil {
				return uerr
			}
			return fmt.Errorf("%w (rollback incomplete: %v)", err, uerr)
		}
	}
	return err
}

// locateVersion re-finds the address of a version whose bytes are known,
// for the compensation steps, the way resolveCandidate does for a candidate.
func (db *Conn) locateVersion(h *relHandle, tup []byte, rid page.RID) (page.RID, error) {
	c, err := db.resolveCandidate(h, candidate{rid: rid, tup: tup})
	if err != nil {
		return page.NilRID, err
	}
	return c.rid, nil
}

// restoreOpen rewrites a superseded version back to its open image,
// reversing a Supersede whose statement failed afterwards.
func (db *Conn) restoreOpen(h *relHandle, closed []byte, tid secTID, open []byte) error {
	if tid.history {
		return fmt.Errorf("core: %s: cannot restore a version moved to the history store", h.desc.Name)
	}
	rid, err := db.locateVersion(h, closed, tid.rid)
	if err != nil {
		return err
	}
	return h.src.UpdateCurrent(rid, open)
}

// removeVersion deletes a version that a failed statement inserted.
func (db *Conn) removeVersion(h *relHandle, tup []byte, tid secTID) error {
	if tid.history {
		return fmt.Errorf("core: %s: cannot remove a version from the history store", h.desc.Name)
	}
	rid, err := db.locateVersion(h, tup, tid.rid)
	if err != nil {
		return err
	}
	return h.src.RemoveCurrent(rid)
}

// --- append ---

func (db *Conn) execAppend(s *tquel.AppendStmt) (*Result, error) {
	h, err := db.handle(s.Rel)
	if err != nil {
		return nil, err
	}

	// An append whose targets or qualification mention range variables is a
	// query whose result is appended (Quel semantics).
	seen := map[string]bool{}
	for _, t := range s.Targets {
		varsInExpr(t.Expr, seen)
	}
	if s.Where != nil {
		varsInExpr(s.Where, seen)
	}
	if s.When != nil {
		varsInTExpr(s.When, seen)
	}

	if len(seen) == 0 {
		// No range variables: the targets and the valid clause are
		// evaluated once, over no bindings.
		c := &compiler{e: &env{now: int64(db.now())}}
		tup, err := c.targets(h.desc, s.Targets)(h.desc.Schema.NewTuple())
		if err != nil {
			return nil, err
		}
		valid, err := db.newValidity(h, s.Valid, c)()
		if err == nil {
			err = db.insertNew(h, tup, valid)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Affected: 1}, nil
	}

	// Run the embedded retrieve, then append each row.
	sub := &tquel.RetrieveStmt{Targets: s.Targets, Where: s.Where, When: s.When, Valid: s.Valid}
	res, err := db.execRetrieve(sub)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, row := range res.Rows {
		vals := map[string]tuple.Value{}
		for i, t := range s.Targets {
			vals[strings.ToLower(t.Name)] = row[i]
		}
		// The sub-retrieve computed result validity in its last columns.
		var iv *temporal.Interval
		if len(row) == len(s.Targets)+2 {
			iv = &temporal.Interval{
				From: temporal.Time(row[len(row)-2].I),
				To:   temporal.Time(row[len(row)-1].I),
			}
		}
		if err := db.appendConstRow(h, vals, iv); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected, Input: res.Input, Output: res.Output}, nil
}

// appendConstRow inserts one tuple from pre-evaluated values, valid over
// iv when the relation has valid time and iv is given, else over the
// default interval.
func (db *Conn) appendConstRow(h *relHandle, vals map[string]tuple.Value, iv *temporal.Interval) error {
	desc := h.desc
	tup := desc.Schema.NewTuple()
	for name, v := range vals {
		i := desc.Schema.Index(name)
		if i < 0 || i >= desc.NumUserAttrs {
			return fmt.Errorf("core: %s has no user attribute %q", desc.Name, name)
		}
		if err := desc.Schema.SetValue(tup, i, v); err != nil {
			return err
		}
	}
	valid, err := db.newValidity(h, nil, nil)()
	if err != nil {
		return err
	}
	if iv != nil && desc.VF >= 0 {
		// Instants past "forever" are "forever", as a time attribute
		// stores them.
		valid = temporal.Interval{From: min(iv.From, temporal.Forever), To: min(iv.To, temporal.Forever)}
		if desc.Model == catalog.ModelEvent {
			valid.To = valid.From
		}
	}
	return db.insertNew(h, tup, valid)
}

// insertNew stamps the implicit time attributes of a fresh version
// (Section 4: transaction start = now, transaction stop = forever, valid
// over the resolved interval valid) and inserts it as current.
func (db *Conn) insertNew(h *relHandle, tup []byte, valid temporal.Interval) error {
	desc := h.desc
	now := db.now()
	if desc.TS >= 0 {
		setTime(desc, tup, desc.TS, now)
		setTime(desc, tup, desc.TE, temporal.Forever)
	}
	if desc.VF >= 0 {
		setTime(desc, tup, desc.VF, valid.From)
		if desc.Model == catalog.ModelInterval {
			setTime(desc, tup, desc.VT, valid.To)
		}
	}
	rid, err := h.src.InsertCurrent(tup)
	if err != nil {
		return err
	}
	if err := h.indexInsertCurrent(tup, rid); err != nil {
		return unwind(err, []undoFn{func() error {
			return db.removeVersion(h, tup, secTID{rid: rid})
		}})
	}
	statNoteInsert(h, tup)
	return nil
}

// --- delete / replace ---

// candidate is a current version selected by a DML qualification.
type candidate struct {
	rid page.RID
	tup []byte
}

// dmlCandidates materializes the current versions of v's relation h
// matching the where/when qualification. Materializing first keeps the
// subsequent inserts from being rescanned (the classic Halloween problem).
// The caller holds h exclusively, so the candidates are the relation's
// current versions and no other writer can move them before the statement
// ends.
func (db *Conn) dmlCandidates(h *relHandle, v string, where tquel.Expr, when tquel.TExpr) (*query, []candidate, error) {
	e, err := db.preparedCandidates(h, v, where, when)
	if err != nil {
		return nil, nil, err
	}
	// The scan qualifies in place and copies only the victims, into the
	// session arena, reset for each candidate collection. The victim hook
	// saw each candidate's address as the block copied its tuple; the
	// copies arrive here in the same order.
	db.arena.Reset()
	e.rids = e.rids[:0]
	var cands []candidate
	err = exec.RunBatches(e.root, e.buf, func(b *exec.Batch) error {
		for _, i := range b.Sel() {
			cands = append(cands, candidate{rid: e.rids[len(cands)], tup: b.Row(i)[0]})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return e.q, cands, nil
}

// preparedCandidates returns the candidate scan of a delete or replace of
// v (over h), prepared and bound: the session's entry for the
// qualification's shape when its access path still fits the values, else
// a fresh entry, kept. The scan is a one-variable retrieve routed through
// the planner and the executor, so DML uses the same access-path decision
// as retrieves.
func (db *Conn) preparedCandidates(h *relHandle, v string, where tquel.Expr, when tquel.TExpr) (*stmtEntry, error) {
	c := &db.cache
	c.sync(db.epoch)
	c.begin(db)
	c.w.candidates(v, where, when)
	if e := c.m[string(c.w.buf)]; e != nil {
		e.bindLits(c.w.lits)
		if err := db.bind(e.q); err != nil {
			return nil, err
		}
		e.info = db.varInfo(e.q, v)
		if e.leaf.Rebind(&e.info) {
			return e, nil
		}
	}
	where, when = cloneExpr(where), cloneTExpr(when)
	var w shaper
	w.candidates(v, where, when)
	e := &stmtEntry{key: string(c.w.buf), lits: w.lits}
	probe := &tquel.RetrieveStmt{
		Targets: []tquel.Target{{Name: "x", Expr: &tquel.AttrExpr{Var: v, Attr: h.desc.Schema.Attr(0).Name}}},
		Where:   where,
		When:    when,
	}
	q, err := db.newQuery(probe)
	if err != nil {
		return nil, err
	}
	q.dml = true
	if err := db.bind(q); err != nil {
		return nil, err
	}
	if len(q.vars) != 1 || q.vars[0] != v {
		return nil, fmt.Errorf("core: delete/replace qualification must reference only %q", v)
	}
	e.q, e.info = q, db.varInfo(q, v)
	e.leaf = plan.Leaf(&e.info)
	l := &lowering{db: db, q: q, binds: q.env.vars}
	e.root, err = l.lowerBatchLeaf(e.leaf, func(rid page.RID, tup []byte) bool {
		if !isCurrentTuple(q.qv[v].h.desc, tup) {
			return false
		}
		e.rids = append(e.rids, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	e.buf = exec.NewBatch(1, db.batchCap())
	c.put(e)
	return e, nil
}

func (db *Conn) execDelete(s *tquel.DeleteStmt) (*Result, error) {
	h, err := db.relForVar(s.Var)
	if err != nil {
		return nil, err
	}
	_, cands, err := db.dmlCandidates(h, s.Var, s.Where, s.When)
	if err != nil {
		return nil, err
	}
	now := db.now()
	for _, c := range cands {
		// The returned undo is dropped: a completed delete is final, and a
		// failed one has already been compensated internally.
		if _, err := db.deleteVersion(h, c, now); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(cands)}, nil
}

// resolveCandidate re-locates a candidate whose tuple may have moved since
// collection: B-tree leaf splits relocate tuples, so the address is found
// again by probing for the bytewise-identical version. The other access
// methods never move tuples.
func (db *Conn) resolveCandidate(h *relHandle, c candidate) (candidate, error) {
	if h.desc.Method.StableRIDs() {
		return c, nil
	}
	key, err := keyFor(h.desc, h.desc.KeyAttr)
	if err != nil {
		return c, err
	}
	found := false
	err = am.Each(h.src.ProbeAll(key.Extract(c.tup)), func(rid page.RID, tup []byte) error {
		if string(tup) != string(c.tup) {
			return nil
		}
		c.rid, found = rid, true
		return am.Stop
	})
	if err == nil && !found {
		err = fmt.Errorf("core: %s: version to update vanished (concurrent structure change?)", h.desc.Name)
	}
	return c, err
}

// deleteVersion applies the type-specific delete of Section 4 to one
// current version. On success it also returns an undo that reverses the
// whole delete, for callers (replace) with further steps that may fail;
// on error, any steps already applied have been compensated. Statistics
// follow the same discipline: noted only on success, and the returned
// undo re-notes the reversal so a failed replace leaves them consistent.
func (db *Conn) deleteVersion(h *relHandle, c candidate, now temporal.Time) (undoFn, error) {
	undo, err := db.deleteVersionRaw(h, c, now)
	if err != nil {
		return nil, err
	}
	statNoteDelete(h, c.tup)
	return func() error {
		if err := undo(); err != nil {
			return err
		}
		statNoteUndelete(h, c.tup)
		return nil
	}, nil
}

func (db *Conn) deleteVersionRaw(h *relHandle, c candidate, now temporal.Time) (undoFn, error) {
	desc := h.desc
	c, err := db.resolveCandidate(h, c)
	if err != nil {
		return nil, err
	}
	// reinsert puts an outright-removed version back (static semantics).
	reinsert := func() error {
		rid, err := h.src.InsertCurrent(c.tup)
		if err != nil {
			return err
		}
		return h.indexInsertCurrent(c.tup, rid)
	}
	switch desc.Type {
	case catalog.Static:
		if err := h.src.RemoveCurrent(c.rid); err != nil {
			return nil, err
		}
		if err := h.indexRemove(c.tup, c.rid); err != nil {
			return nil, unwind(err, []undoFn{reinsert})
		}
		return reinsert, nil

	case catalog.Rollback:
		closed := append([]byte(nil), c.tup...)
		setTime(desc, closed, desc.TE, now)
		tid, err := h.src.Supersede(c.rid, closed)
		if err != nil {
			return nil, err
		}
		reopen := func() error { return db.restoreOpen(h, closed, tid, c.tup) }
		if err := h.indexMove(closed, c.rid, tid); err != nil {
			return nil, unwind(err, []undoFn{reopen})
		}
		return func() error {
			if err := h.indexMoveBack(closed, tid, c.rid); err != nil {
				return err
			}
			return reopen()
		}, nil

	case catalog.Historical:
		if desc.Model == catalog.ModelEvent {
			// An event cannot stop being valid; deleting it is error
			// correction and removes it outright.
			if err := h.src.RemoveCurrent(c.rid); err != nil {
				return nil, err
			}
			if err := h.indexRemove(c.tup, c.rid); err != nil {
				return nil, unwind(err, []undoFn{reinsert})
			}
			return reinsert, nil
		}
		closed := append([]byte(nil), c.tup...)
		setTime(desc, closed, desc.VT, now)
		tid, err := h.src.Supersede(c.rid, closed)
		if err != nil {
			return nil, err
		}
		reopen := func() error { return db.restoreOpen(h, closed, tid, c.tup) }
		if err := h.indexMove(closed, c.rid, tid); err != nil {
			return nil, unwind(err, []undoFn{reopen})
		}
		return func() error {
			if err := h.indexMoveBack(closed, tid, c.rid); err != nil {
				return err
			}
			return reopen()
		}, nil

	case catalog.Temporal:
		// Close the version in transaction time...
		closed := append([]byte(nil), c.tup...)
		setTime(desc, closed, desc.TE, now)
		tid, err := h.src.Supersede(c.rid, closed)
		if err != nil {
			return nil, err
		}
		reopen := func() error { return db.restoreOpen(h, closed, tid, c.tup) }
		undos := []undoFn{reopen}
		if err := h.indexMove(closed, c.rid, tid); err != nil {
			return nil, unwind(err, undos)
		}
		undos = append(undos, func() error { return h.indexMoveBack(closed, tid, c.rid) })
		if desc.Model == catalog.ModelInterval {
			// ... and insert the marker recording that validity ended now
			// ("a new version with the updated valid to attribute").
			marker := append([]byte(nil), c.tup...)
			setTime(desc, marker, desc.TS, now)
			setTime(desc, marker, desc.TE, temporal.Forever)
			setTime(desc, marker, desc.VT, now)
			mtid, err := h.src.InsertHistory(marker)
			if err != nil {
				return nil, unwind(err, undos)
			}
			undos = append(undos, func() error { return db.removeVersion(h, marker, mtid) })
			if err := h.indexInsertHistory(marker, mtid); err != nil {
				return nil, unwind(err, undos)
			}
			undos = append(undos, func() error { return h.indexRemoveAt(marker, mtid) })
		}
		return func() error {
			return unwind(nil, undos)
		}, nil
	}
	return nil, fmt.Errorf("core: unknown relation type %v", desc.Type)
}

func (db *Conn) execReplace(s *tquel.ReplaceStmt) (*Result, error) {
	h, err := db.relForVar(s.Var)
	if err != nil {
		return nil, err
	}
	q, cands, err := db.dmlCandidates(h, s.Var, s.Where, s.When)
	if err != nil {
		return nil, err
	}
	desc := h.desc
	now := db.now()
	// The targets and the valid clause are compiled once and evaluated per
	// candidate, bound to the old version (seq = h.seq + 1).
	b := q.env.vars[s.Var]
	comp := &compiler{e: q.env, vars: q.env.vars}
	build, valid := comp.targets(desc, s.Targets), db.newValidity(h, s.Valid, comp)
	for _, c := range cands {
		b.tup = c.tup
		newUser, err := build(c.tup)
		if err != nil {
			return nil, err
		}

		switch desc.Type {
		case catalog.Static:
			c, err := db.resolveCandidate(h, c)
			if err != nil {
				return nil, err
			}
			if err := db.replaceInPlace(h, c, newUser); err != nil {
				return nil, err
			}
			continue

		case catalog.Historical:
			if desc.Model == catalog.ModelEvent {
				// Error correction in place, optionally re-dating the event.
				if s.Valid != nil {
					iv, err := valid()
					if err != nil {
						return nil, err
					}
					setTime(desc, newUser, desc.VF, iv.From)
				}
				c, err := db.resolveCandidate(h, c)
				if err != nil {
					return nil, err
				}
				if err := db.replaceInPlace(h, c, newUser); err != nil {
					return nil, err
				}
				continue
			}
		}

		// Versioned replace: delete the old version, then append the new.
		// A failure inside insertNew reverses the delete, so the chain keeps
		// its old version rather than ending half-replaced.
		undoDelete, err := db.deleteVersion(h, c, now)
		if err != nil {
			return nil, err
		}
		var iv temporal.Interval
		if s.Valid == nil && desc.Type == catalog.Temporal && desc.Model == catalog.ModelEvent {
			// A replaced event keeps its original occurrence time unless
			// the valid clause re-dates it.
			at := temporal.Time(desc.Schema.Int(c.tup, desc.VF))
			iv = temporal.Interval{From: at, To: at}
		} else {
			iv, err = valid()
		}
		if err == nil {
			err = db.insertNew(h, newUser, iv)
		}
		if err != nil {
			return nil, unwind(err, []undoFn{undoDelete})
		}
	}
	b.tup = nil
	return &Result{Affected: len(cands)}, nil
}

// replaceInPlace overwrites a current version with a new image (static and
// historical-event semantics), keeping the index entries in step. Each step
// is compensated so a mid-replace failure leaves the old image in place.
func (db *Conn) replaceInPlace(h *relHandle, c candidate, newUser []byte) error {
	if err := h.src.UpdateCurrent(c.rid, newUser); err != nil {
		return err
	}
	undos := []undoFn{func() error { return h.src.UpdateCurrent(c.rid, c.tup) }}
	if err := h.indexRemove(c.tup, c.rid); err != nil {
		return unwind(err, undos)
	}
	undos = append(undos, func() error { return h.indexInsertCurrent(c.tup, c.rid) })
	if err := h.indexInsertCurrent(newUser, c.rid); err != nil {
		return unwind(err, undos)
	}
	statNoteReplaceImage(h, c.tup, newUser)
	return nil
}
