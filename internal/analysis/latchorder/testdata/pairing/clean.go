// Clean fixture for latchorder's pairing rules: the idioms the engine actually
// uses — defer pairing, explicit scoped unlock, early unlock-and-return,
// deferred closures, read locks, and loop-neutral critical sections.
package fixture

import "sync"

type cache struct {
	mu sync.Mutex
	rw sync.RWMutex
	m  map[string]int
}

// deferred is the dominant idiom: acquire then defer the release.
func (c *cache) deferred(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// scoped releases explicitly before the return, straight-line.
func (c *cache) scoped(k string, v int) {
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
}

// earlyOut unlocks on both the early path and the main path.
func (c *cache) earlyOut(k string) (int, bool) {
	c.mu.Lock()
	if v, ok := c.m[k]; ok {
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	return 0, false
}

// readSide pairs RLock with a deferred RUnlock.
func (c *cache) readSide(k string) int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.m[k]
}

// deferredClosure releases inside a deferred function literal.
func (c *cache) deferredClosure(k string, v int) {
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
	}()
	c.m[k] = v
}

// loopNeutral acquires and releases within each iteration.
func (c *cache) loopNeutral(keys []string) int {
	total := 0
	for _, k := range keys {
		c.mu.Lock()
		total += c.m[k]
		c.mu.Unlock()
	}
	return total
}

// grow reacquires in write mode after probing under the read lock.
func (c *cache) grow(k string) int {
	c.rw.RLock()
	v, ok := c.m[k]
	c.rw.RUnlock()
	if ok {
		return v
	}
	c.rw.Lock()
	defer c.rw.Unlock()
	c.m[k] = 1
	return 1
}
