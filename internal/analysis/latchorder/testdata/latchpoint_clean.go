// Clean fixture for the latch-transfer machinery: per-relation latches
// acquired only inside the designated latchpoint, handed to the
// statement through latchSet, and released by latchSet.release. The
// conn.mu -> db.ddl -> latchTable.mu -> rel.latch -> pool.mu order is
// witnessed with no cycle, and the only blocking I/O under a statement
// latch sits in a designated flush path. Type and field names mirror
// the engine's real guards — the classing is by owner type and field.
package fixture

import (
	"os"
	"sync"
)

type Conn struct {
	mu sync.Mutex
	db *Database
}

type Database struct {
	ddl     sync.RWMutex
	latches latchTable
	frame   *pool
}

// latchTable hands out the latch for a relation name.
type latchTable struct {
	mu sync.Mutex
	m  map[string]*relLatch
}

func (t *latchTable) of(name string) *relLatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.m[name]
	if !ok {
		l = &relLatch{}
		t.m[name] = l
	}
	return l
}

type relLatch struct {
	mu sync.RWMutex
}

// lock acquires the latch in the requested mode — the mode-conditional
// shape whose net-zero merge hides the leak from lockflow; the directive
// states the hand-off explicitly.
//
//tdbvet:latchpoint the latch is handed to the statement and released by latchSet.release
func (l *relLatch) lock(excl bool) {
	if excl {
		l.mu.Lock()
	} else {
		l.mu.RLock()
	}
}

//tdbvet:latchpoint releases the latch lock handed to the statement
func (l *relLatch) unlock(excl bool) {
	if excl {
		l.mu.Unlock()
	} else {
		l.mu.RUnlock()
	}
}

type latchSet struct {
	rels []*relLatch
}

// acquire takes every latch in sorted order; the set stays held when it
// returns.
func (s *latchSet) acquire() {
	for _, l := range s.rels {
		l.lock(true)
	}
}

// release drops the statement's latches.
func (s *latchSet) release() {
	for i := len(s.rels) - 1; i >= 0; i-- {
		s.rels[i].unlock(true)
	}
}

// run is the statement path: conn.mu, the shared schema latch, the
// statement's relation latches, then the closure under all of them.
func (c *Conn) run(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.db.ddl.RLock()
	defer c.db.ddl.RUnlock()
	ls := &latchSet{rels: []*relLatch{c.db.latches.of("a"), c.db.latches.of("b")}}
	ls.acquire()
	defer ls.release()
	return fn()
}

// Exec drives a statement; the closure reads through the buffer under
// the full latch set, witnessing rel.latch -> pool.mu.
func (c *Conn) Exec() error {
	return c.run(func() error {
		c.db.frame.fetch()
		return nil
	})
}

type pool struct {
	mu sync.Mutex
}

func (p *pool) fetch() {
	p.mu.Lock()
	defer p.mu.Unlock()
}

// checkpoint flushes under the exclusive schema latch — sanctioned, and
// visibly so.
//
//tdbvet:flushpath checkpoint durability requires fsync under the schema latch by design
func (db *Database) checkpoint() error {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	f, err := os.Create("snapshot")
	if err != nil {
		return err
	}
	return f.Sync()
}
