// Violating fixture for the latchorder pairing rules: locks leaked on return
// paths, mismatched modes, conditionally-held guards, and unlocks that
// cross function boundaries.
package fixture

import "sync"

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// leakOnError releases the lock on the happy path only: the early error
// return leaks it.
func (s *store) leakOnError(fail bool) error {
	s.mu.Lock()
	if fail {
		return errFixture
	}
	s.n++
	s.mu.Unlock()
	return nil
}

// leakAtEnd never unlocks at all.
func (s *store) leakAtEnd() {
	s.mu.Lock()
	s.n++
}

// mismatched pairs a write lock with a read unlock.
func (s *store) mismatched() {
	s.rw.Lock()
	s.n++
	s.rw.RUnlock()
}

// conditional holds the lock on one branch only past the merge point.
func (s *store) conditional(lock bool) {
	if lock {
		s.mu.Lock()
	}
	s.n++
}

// crossing unlocks a guard this function never acquired — ownership
// crossing a function boundary.
func (s *store) crossing() {
	s.mu.Unlock()
}

// litLeak leaks inside a function literal: the literal is its own scope.
func (s *store) litLeak() func() {
	return func() {
		s.mu.Lock()
		s.n++
	}
}

var errFixture error
