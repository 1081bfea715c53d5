// Violating fixture for the latch-transfer machinery: a relation latch
// acquired outside the designated latchpoint, a latch-order cycle
// closed through a carried latch (the schema latch acquired while a
// transferred relation latch is still held), blocking I/O under a
// carried relation latch, and a reasonless latchpoint directive.
package fixture

import (
	"os"
	"sync"
)

type Database struct {
	ddl sync.RWMutex
}

type relLatch struct {
	mu sync.RWMutex
}

// lock returns holding the latch — the plain-leak hand-off shape.
//
//tdbvet:latchpoint the latch is handed to the statement
func (l *relLatch) lock() {
	l.mu.Lock()
}

//tdbvet:latchpoint releases the latch lock handed to the caller
func (l *relLatch) unlock() {
	l.mu.Unlock()
}

// bypass takes a relation latch directly instead of going through the
// latchpoint, so nothing enforces the sorted acquisition order.
func (l *relLatch) bypass() {
	l.mu.Lock()
	defer l.mu.Unlock()
}

// stmt is the sanctioned direction: the schema latch, then the relation
// latch through the latchpoint.
func (db *Database) stmt(l *relLatch) {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	l.lock()
	defer l.unlock()
}

// inverted acquires the schema latch while still holding a transferred
// relation latch: rel.latch -> db.ddl, the inverse of stmt's order,
// closing the cycle.
func (db *Database) inverted(l *relLatch) {
	l.lock()
	db.ddl.RLock()
	db.ddl.RUnlock()
	l.unlock()
}

// spill performs blocking I/O while holding the transferred relation
// latch, with no flushpath designation.
func (l *relLatch) spill() error {
	l.lock()
	defer l.unlock()
	return os.Remove("spill")
}

//tdbvet:latchpoint
func (l *relLatch) reasonless() {
	l.mu.RLock()
}
