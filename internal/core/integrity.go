package core

import (
	"fmt"
	"sort"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/catalog"
	"tdbms/internal/page"
	"tdbms/internal/temporal"
)

// CheckIntegrity walks every relation and verifies the structural
// invariants the Section 4 update semantics maintain: tuples are full
// width, transaction and valid intervals are ordered, and each key has at
// most one open (current) version — the head of its append-only version
// chain. The fault-injection tests call it after a failed statement and
// again after reopen to prove no chain was left torn. The walk shares the
// reader lock, so it can run against a live database.
//
// The one-open-version-per-key rule assumes key-unique current data, which
// holds for the benchmark schema (and any relation maintained purely by
// replace/delete); relations deliberately appended with duplicate keys
// would trip it.
func (db *Database) CheckIntegrity() error {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	if db.closed {
		return errClosed
	}
	names := make([]string, 0, len(db.rels))
	for name := range db.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Latch each relation shared and scan through a throwaway view:
		// the root handle's scratch page is the statement writer's, and a
		// concurrent reader's own view keeps the frames consistent.
		ls := db.newLatchSet([]string{name}, nil)
		ls.acquire()
		v := db.rels[name].withAccount(buffer.NewAccount())
		err := db.checkRelation(v)
		ls.release()
		if err != nil {
			return err
		}
	}
	return nil
}

func (db *Database) checkRelation(h *relHandle) error {
	desc := h.desc
	// Chain identity: the storage key when one is declared, else the first
	// user attribute when it is key-shaped (the benchmark's id column).
	key, keyErr := chainKey(desc)
	open := make(map[int64]bool)
	// A violation is recorded and ends the walk; an error from the walk
	// itself is the scan's.
	var bad error
	fail := func(format string, args ...any) error {
		bad = fmt.Errorf("core: integrity %s: "+format, append([]any{desc.Name}, args...)...)
		return am.Stop
	}
	err := am.Each(h.src.ScanAll(), func(_ page.RID, tup []byte) error {
		if len(tup) != desc.Schema.Width() {
			return fail("tuple width %d, schema width %d", len(tup), desc.Schema.Width())
		}
		if desc.TS >= 0 {
			ts := temporal.Time(desc.Schema.Int(tup, desc.TS))
			te := temporal.Time(desc.Schema.Int(tup, desc.TE))
			if ts > te {
				return fail("transaction interval inverted (%s > %s)", ts, te)
			}
		}
		if desc.VF >= 0 && desc.Model == catalog.ModelInterval {
			vf := temporal.Time(desc.Schema.Int(tup, desc.VF))
			vt := temporal.Time(desc.Schema.Int(tup, desc.VT))
			if vf > vt {
				return fail("valid interval inverted (%s > %s)", vf, vt)
			}
		}
		if keyErr == nil && desc.Type != catalog.Static && isCurrentTuple(desc, tup) {
			k := key.Extract(tup)
			if open[k] {
				return fail("key %d has more than one open version", k)
			}
			open[k] = true
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: integrity %s: scan: %w", desc.Name, err)
	}
	return bad
}
