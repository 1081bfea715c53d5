package core

import (
	"sort"
	"strings"
	"sync"
)

// Per-relation statement latching. A statement declares the relations it
// will touch before it runs; run acquires a shared latch per relation it
// only reads and an exclusive latch per relation it mutates, always in
// sorted name order so two statements latching overlapping sets can never
// deadlock. DDL (and anything else that mutates the relation *map* or the
// catalog) instead takes the database-wide schema latch exclusively; every
// ordinary statement holds that latch shared for its whole duration.
//
// The latch order, which cmd/tdbvet's latchorder check proves acyclic, is
//
//	conn.mu → db.ddl → latchTable.mu → rel.latch → buffer.pool.mu → storage.mu
//
// relation latches among themselves are ordered by relation name.

// relLatch is one relation's statement latch: readers of the relation
// share it, the (single) writer holds it exclusively.
type relLatch struct {
	mu sync.RWMutex
}

// lock acquires the latch in the requested mode. It is the one sanctioned
// place a relation latch is taken — everything else goes through latchSet,
// whose sorted acquisition order the latchorder check enforces.
//
//tdbvet:latchpoint relation latches are acquired only here, in latchSet order, and released by latchSet.release
func (l *relLatch) lock(excl bool) {
	if excl {
		l.mu.Lock()
	} else {
		l.mu.RLock()
	}
}

// unlock releases a latch taken by lock.
//
//tdbvet:latchpoint releases the statement latch relLatch.lock handed to latchSet
func (l *relLatch) unlock(excl bool) {
	if excl {
		l.mu.Unlock()
	} else {
		l.mu.RUnlock()
	}
}

// latchTable hands out the latch for a relation name, creating it on first
// use. Latches are keyed by lowercased name and never removed: a destroyed
// relation's latch is reused if the name is re-created, and the table stays
// bounded by the set of names ever referenced.
type latchTable struct {
	mu sync.Mutex
	m  map[string]*relLatch
}

func (t *latchTable) of(name string) *relLatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*relLatch)
	}
	l, ok := t.m[name]
	if !ok {
		l = &relLatch{}
		t.m[name] = l
	}
	return l
}

// lockedRel is one entry of a statement's latch set.
type lockedRel struct {
	name string
	excl bool
	l    *relLatch
}

// latchSet is the sorted list of relation latches one statement holds.
type latchSet struct {
	rels []lockedRel
}

// newLatchSet resolves relation names to latches, deduplicated (exclusive
// wins over shared) and sorted by name — the acquisition order that makes
// overlapping statements deadlock-free. Names are lowercased here, so
// callers may pass user spelling.
func (db *Database) newLatchSet(read, write []string) *latchSet {
	mode := make(map[string]bool, len(read)+len(write))
	for _, n := range read {
		key := strings.ToLower(n)
		if _, ok := mode[key]; !ok {
			mode[key] = false
		}
	}
	for _, n := range write {
		mode[strings.ToLower(n)] = true
	}
	s := &latchSet{rels: make([]lockedRel, 0, len(mode))}
	for n, excl := range mode {
		s.rels = append(s.rels, lockedRel{name: n, excl: excl, l: db.latches.of(n)})
	}
	sort.Slice(s.rels, func(i, j int) bool { return s.rels[i].name < s.rels[j].name })
	return s
}

// acquire takes every latch in sorted order.
func (s *latchSet) acquire() {
	for _, r := range s.rels {
		r.l.lock(r.excl)
	}
}

// release drops every latch in reverse order.
func (s *latchSet) release() {
	for i := len(s.rels) - 1; i >= 0; i-- {
		s.rels[i].l.unlock(s.rels[i].excl)
	}
}
