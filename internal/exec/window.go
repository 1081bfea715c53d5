package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// window is the in-order work window a full scan's morsels and a
// substitution join's probes share: items numbered from 0 that the caller
// publishes, that helper goroutines and the caller claim in order and
// run, and that the caller then takes one by one, in order, waiting for
// each to be done. One set of helpers serves a whole execution: they
// start with it and stop at close, and between the caller's waits they
// run ahead through what is published, while the caller replays, settles
// or is back in its consumer. A caller waiting for an item that is not
// done runs the next unclaimed item itself, and only sleeps when every
// published item is claimed.
//
// What the caller may publish is bounded by its ring: done[i%len(done)]
// marks item i, so an item is published only once the item len(done)
// before it has been taken. An item whose run fails ends the window at
// it: no later item is claimed, and those already claimed are run and
// dropped, as the caller stops at the failed one.
type window struct {
	run  func(w, i int) bool // runs item i on worker w; false when it failed
	done []atomic.Int64      // done[i%len(done)] is i+1 once item i has run

	next  atomic.Int64 // items below next are claimed
	limit atomic.Int64 // items below limit are published
	stop  atomic.Int64 // no item at or past stop is claimed
	shut  atomic.Bool  // the helpers are to return

	mu      sync.Mutex
	wake    sync.Cond    // helpers sleep here for an item to claim, the caller for one to be done
	asleep  atomic.Int32 // goroutines asleep on wake
	helpers sync.WaitGroup
}

// spinFor is how long a goroutine that finds nothing to do keeps looking
// before it sleeps. It bridges the gap between a join's outer batches and
// the end of a probe or a morsel another goroutine is walking: on a
// two-core virtual machine a goroutine woken from sleep started 0.1 to
// 0.2 ms late, and with no polling BenchmarkSubstitutionJoin/scaled/Q09
// took 80 to 88 ms against 72 to 77 with it.
const spinFor = 50 * time.Microsecond

// start readies the window for an execution whose items run through run,
// with a ring of size items, and starts helpers goroutines, workers 1 to
// helpers, which run until close. Nothing is published yet.
func (q *window) start(helpers, size int, run func(w, i int) bool) {
	q.run = run
	if len(q.done) != size {
		q.done = make([]atomic.Int64, size)
	}
	for i := range q.done {
		q.done[i].Store(0)
	}
	q.next.Store(0)
	q.limit.Store(0)
	q.stop.Store(1<<63 - 1)
	q.shut.Store(false)
	q.wake.L = &q.mu
	for w := 1; w <= helpers; w++ {
		q.helpers.Add(1)
		go q.help(w)
	}
}

// close stops the helpers and waits for them: an item one of them is
// running is finished first, and none is claimed after. The window may
// then be started again. Closing a window that is not running does
// nothing.
func (q *window) close() {
	if !q.running() {
		return
	}
	q.shut.Store(true)
	q.signal()
	q.helpers.Wait()
	q.run = nil
}

// running reports whether the window is started and not yet closed.
func (q *window) running() bool { return q.run != nil }

// publish lets items lo..hi-1 be claimed, and skips the items below lo
// that were never published: every item published before is below lo and
// has been taken or dropped, and hi-lo items fit the ring.
func (q *window) publish(lo, hi int) {
	for {
		n := q.next.Load()
		if n >= int64(lo) || q.next.CompareAndSwap(n, int64(lo)) {
			break
		}
	}
	q.limit.Store(int64(hi))
	q.signal()
}

// await returns once item i has run, running unclaimed items as worker 0
// until then. The caller takes items in order and never one past a
// failed item.
func (q *window) await(i int) {
	for !q.isDone(i) {
		if j, ok := q.claim(); ok {
			q.exec(0, j)
			continue
		}
		q.sleep(func() bool { return q.isDone(i) })
	}
}

// help is helper w's loop: claim, run, and look for more until close.
func (q *window) help(w int) {
	defer q.helpers.Done()
	woken := func() bool { return q.shut.Load() || q.open(q.next.Load()) }
	for {
		if j, ok := q.claim(); ok {
			q.exec(w, j)
			continue
		}
		if q.shut.Load() {
			return
		}
		q.sleep(woken)
	}
}

// open reports whether item n may be claimed: it is published, not past
// a failed item, and the window is not shut.
func (q *window) open(n int64) bool {
	return n < q.limit.Load() && n < q.stop.Load() && !q.shut.Load()
}

// claim takes the next published item, in order, if there is one.
func (q *window) claim() (int, bool) {
	for {
		n := q.next.Load()
		if !q.open(n) {
			return 0, false
		}
		if q.next.CompareAndSwap(n, n+1) {
			return int(n), true
		}
	}
}

// exec runs item i on worker w, ends the window at it if it failed, and
// marks it done.
func (q *window) exec(w, i int) {
	if !q.run(w, i) {
		for {
			s := q.stop.Load()
			if s <= int64(i+1) || q.stop.CompareAndSwap(s, int64(i+1)) {
				break
			}
		}
	}
	q.done[i%len(q.done)].Store(int64(i + 1))
	q.signal()
}

// isDone reports whether item i has run.
func (q *window) isDone(i int) bool { return q.done[i%len(q.done)].Load() == int64(i+1) }

// sleep returns once ok holds: it polls ok for up to spinFor, yielding
// the processor between polls, and then sleeps until a signal finds ok
// holding.
func (q *window) sleep(ok func() bool) {
	for deadline := time.Now().Add(spinFor); time.Now().Before(deadline); {
		if ok() {
			return
		}
		runtime.Gosched()
	}
	q.mu.Lock()
	q.asleep.Add(1)
	for !ok() {
		q.wake.Wait()
	}
	q.asleep.Add(-1)
	q.mu.Unlock()
}

// signal wakes the sleepers after a change that may let one go on: an
// item published or done, or the window shut. A sleeper counts itself
// asleep before it tests its condition, and the change is made before
// signal reads the count, so one of the two sees the other.
func (q *window) signal() {
	if q.asleep.Load() > 0 {
		q.mu.Lock()
		q.wake.Broadcast()
		q.mu.Unlock()
	}
}
