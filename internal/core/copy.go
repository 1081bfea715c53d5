package core

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tdbms/internal/am"
	"tdbms/internal/page"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/tuple"
)

// execCopy implements the batch input/output statement the prototype
// modified "to perform batch input and output of relations having temporal
// attributes" (Section 4). The file format is one tuple per line,
// tab-separated, either the user attributes alone (implicit times default
// as in an append) or the full stored schema including time attributes
// (preserving history across dump/reload).
func (db *Conn) execCopy(s *tquel.CopyStmt) (*Result, error) {
	if s.Into {
		return db.copyOut(s)
	}
	return db.copyIn(s)
}

//tdbvet:flushpath copy-to's whole purpose is dumping the relation to a file under the statement's relation latch
func (db *Conn) copyOut(s *tquel.CopyStmt) (res *Result, retErr error) {
	h, err := db.handle(s.Rel)
	if err != nil {
		return nil, err
	}
	//tdbvet:ignore layering copy writes an external dump file, not counted page I/O
	f, err := os.Create(s.File)
	if err != nil {
		return nil, err
	}
	// A dump that failed to reach disk must not report success: surface the
	// close error unless an earlier one already did.
	defer func() {
		if cerr := f.Close(); cerr != nil && retErr == nil {
			res, retErr = nil, cerr
		}
	}()
	w := bufio.NewWriter(f)
	desc := h.desc
	n := 0
	fields := make([]string, desc.Schema.NumAttrs())
	if err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
		for i := range fields {
			v := desc.Schema.Value(tup, i)
			if v.Kind == tuple.Temporal {
				fields[i] = temporal.Format(temporal.Time(v.I), temporal.Second)
			} else {
				fields[i] = v.String()
			}
		}
		n++
		_, err := fmt.Fprintln(w, strings.Join(fields, "\t"))
		return err
	}); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

//tdbvet:flushpath copy-from reads the dump file under the statement's relation latch; the load is the statement
func (db *Conn) copyIn(s *tquel.CopyStmt) (*Result, error) {
	h, err := db.handle(s.Rel)
	if err != nil {
		return nil, err
	}
	//tdbvet:ignore layering copy reads an external dump file, not counted page I/O
	f, err := os.Open(s.File)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	desc := h.desc
	desc.Stat = nil // bulk load bypasses the DML stat hooks; ANALYZE rebuilds
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		row := make([]tuple.Value, len(fields))
		if len(fields) != desc.NumUserAttrs && len(fields) != desc.Schema.NumAttrs() {
			return nil, fmt.Errorf("core: %s line %d: %d fields, want %d (user attributes) or %d (full schema)",
				s.File, lineNo, len(fields), desc.NumUserAttrs, desc.Schema.NumAttrs())
		}
		for i, field := range fields {
			v, err := parseField(desc.Schema.Attr(i), field, db.now())
			if err != nil {
				return nil, fmt.Errorf("core: %s line %d: %w", s.File, lineNo, err)
			}
			row[i] = v
		}
		if err := db.loadRow(h, row); err != nil {
			return nil, fmt.Errorf("core: %s line %d: %w", s.File, lineNo, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func parseField(a tuple.Attr, field string, now temporal.Time) (tuple.Value, error) {
	switch a.Kind {
	case tuple.Char:
		return tuple.StrValue(field), nil
	case tuple.Temporal:
		t, err := temporal.Parse(field, now)
		if err != nil {
			return tuple.Value{}, err
		}
		return tuple.TemporalValue(int64(t)), nil
	case tuple.F4, tuple.F8:
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("bad number %q", field)
		}
		return tuple.FloatValue(f), nil
	default:
		i, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("bad integer %q", field)
		}
		return tuple.IntValue(i), nil
	}
}

// Load bulk-inserts rows into a relation, bypassing per-statement DML
// semantics — the programmatic equivalent of `copy ... from`, used by the
// benchmark to initialize relations with randomized time attributes
// (Section 5.1). Each row carries either the user attributes (implicit
// times default like an append at the current clock) or the full stored
// schema. A load that fails loads nothing: it returns 0 and the error,
// which names the failing row.
func (db *Database) Load(rel string, rows [][]tuple.Value) (int, error) {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	if db.closed {
		return 0, errClosed
	}
	h, err := db.handle(rel)
	if err != nil {
		return 0, err
	}
	ls := db.newLatchSet(nil, []string{rel})
	ls.acquire()
	defer ls.release()
	h.desc.Stat = nil // bulk load bypasses the DML stat hooks; ANALYZE rebuilds
	// The load is all or nothing, as a statement is, through a view whose
	// buffers charge only the pools. It is one WAL transaction: evictions
	// and the final flush park every page, and one commit logs them all
	// with the end record — a crash mid-load replays to an empty
	// (pre-load) relation, never a partial one.
	v := h.withAccount(nil)
	v.arm()
	for i := 0; i < len(rows) && err == nil; i++ {
		if err = db.loadRow(v, rows[i]); err != nil {
			err = fmt.Errorf("core: row %d: %w", i, err)
		}
	}
	for _, b := range v.src.Buffers() {
		if err == nil {
			err = b.Flush()
		}
	}
	if err := v.end(err); err != nil {
		return 0, err
	}
	if db.wal != nil {
		if err := db.walLoadCommit(h); err != nil {
			return len(rows), err
		}
	}
	return len(rows), nil
}

func (db *Database) loadRow(h *relHandle, row []tuple.Value) error {
	desc := h.desc
	if len(row) != desc.NumUserAttrs && len(row) != desc.Schema.NumAttrs() {
		return fmt.Errorf("%d values, want %d or %d", len(row), desc.NumUserAttrs, desc.Schema.NumAttrs())
	}
	tup := desc.Schema.NewTuple()
	full := len(row) == desc.Schema.NumAttrs()
	if !full {
		// Default implicit times as an append would.
		now := db.clock.Now()
		if desc.TS >= 0 {
			setTime(desc, tup, desc.TS, now)
			setTime(desc, tup, desc.TE, temporal.Forever)
		}
		if desc.VF >= 0 {
			setTime(desc, tup, desc.VF, now)
			if desc.Model != 0 && desc.VT != desc.VF {
				setTime(desc, tup, desc.VT, temporal.Forever)
			}
		}
	}
	for i, v := range row {
		if err := desc.Schema.SetValue(tup, i, v); err != nil {
			return err
		}
	}
	rid, err := h.src.InsertCurrent(tup)
	if err != nil {
		return err
	}
	if len(h.indexes) > 0 && isCurrentTuple(desc, tup) {
		return h.indexInsertCurrent(tup, rid)
	}
	if len(h.indexes) > 0 {
		return h.indexInsertHistory(tup, secTID{rid: rid})
	}
	return nil
}
