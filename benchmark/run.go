package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tdbms/internal/core"
	"tdbms/internal/tquel"
)

// env is one database under test with its model and, on disk, its I/O
// counters. Oracle verdicts accumulate in the run's result.
type env struct {
	cfg config
	db  *core.Database
	m   *model
	io  *ioStats // nil for an in-memory database: no files, no log
	r   *result
}

// client is one session driven by one goroutine, as an embedding
// application would drive it.
type client struct {
	e    *env
	idx  int
	conn *core.Conn
	tr   *tracer // set only in the traced replay
}

func (e *env) newClient(idx int) (*client, error) {
	conn, err := newConn(e.db, fmt.Sprintf("client-%d", idx))
	if err != nil {
		return nil, err
	}
	return &client{e: e, idx: idx, conn: conn}, nil
}

// do runs one statement the way Conn.Exec does — parse, then execute — times
// it, and checks the result against the model. The shared clock moves one
// second before every write so no two versions of a tuple share an instant.
func (c *client) do(st *stmt) (*core.Result, time.Duration, bool) {
	before := c.e.m.before(st)
	if st.isWrite() {
		c.e.db.Clock().Advance(1)
	}
	if c.tr != nil {
		c.tr.stmt++
	}
	whole := c.tr.begin("stmt")
	t0 := time.Now()
	sp := c.tr.begin("tquel.parse")
	parsed, err := tquel.Parse(st.text)
	c.tr.end(sp)
	var res *core.Result
	if err == nil {
		sp = c.tr.begin("core.exec")
		res, err = c.conn.ExecStmt(parsed)
		c.tr.end(sp)
	}
	took := time.Since(t0)
	c.tr.end(whole)
	if err == nil {
		if st.isWrite() {
			c.e.m.ack(st, c.idx)
		}
		err = c.e.m.check(st, res, before)
	}
	c.e.r.attempt(st.text, err)
	return res, took, err == nil
}

// recording holds what one actor measured in the timed window.
type recording struct {
	lat     []int64 // ns per correct statement; from the due time in an open loop
	q       []int   // query index per sample, for scans
	late    []int64 // open loop: ns from due time to start
	elapsed time.Duration
}

func (r *recording) add(st *stmt, ns int64) {
	r.lat = append(r.lat, ns)
	r.q = append(r.q, st.q)
}

// actor is a client with the statement stream it issues. The stream lives
// across warm-up and window, so append ids never repeat.
type actor struct {
	c    *client
	g    gen
	rate int // statements per second of an open loop; 0 for a closed loop
	// cycle makes a closed loop end only on a multiple of cycle statements,
	// so a window holds whole cycles of history_scan's unequal queries.
	cycle int
	// stmts, when set, makes a closed loop count-based: a phase is exactly
	// stmts statements, whatever the clock says. durable_write runs so,
	// because its log is never truncated mid-run and recovery time compares
	// only between logs of one length.
	stmts int
	rec   *recording
}

// actors builds the workload's clients: the traffic of the timed runs.
func (e *env) actors(workload string, seed int64) ([]*actor, error) {
	var as []*actor
	add := func(g func(rng *rand.Rand, idx int) gen, rate, cycle int) error {
		idx := len(as)
		c, err := e.newClient(idx)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed*int64(clients) + int64(idx)))
		as = append(as, &actor{c: c, g: g(rng, idx), rate: rate, cycle: cycle})
		return nil
	}
	var err error
	switch workload {
	case pointRead:
		for i := 0; i < clients && err == nil; i++ {
			err = add(func(rng *rand.Rand, _ int) gen { return e.m.pointGen(rng) }, 0, 1)
		}
	case historyScan:
		err = add(func(*rand.Rand, int) gen { return e.m.scanGen() }, 0, len(queryIDs))
	case durableWrite:
		for i := 0; i < clients && err == nil; i++ {
			err = add(e.m.writeGen, 0, 1)
		}
	case mixedRW:
		e.m.writers = 1
		err = add(func(rng *rand.Rand, _ int) gen { return e.m.readGen(rng) }, 0, 1)
		if err == nil {
			err = add(func(rng *rand.Rand, _ int) gen { return e.m.replaceGen(rng) }, e.cfg.writerRate, 1)
		}
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	return as, err
}

// replayGen is the workload's single-client statement stream for the traced
// replay; mixed_rw interleaves one write per ten reads serially.
func (e *env) replayGen(workload string, seed int64) gen {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case historyScan:
		return e.m.scanGen()
	case durableWrite:
		return e.m.writeGen(rng, 0)
	case mixedRW:
		return interleave(e.m.readGen(rng), e.m.replaceGen(rand.New(rand.NewSource(seed+1))), 10)
	}
	return e.m.pointGen(rng)
}

// runPhase runs every actor for d, concurrently, and waits for all of them.
// Statements are recorded only when record is set, and recorded phases add
// up; warm-up statements are still checked.
func runPhase(as []*actor, d time.Duration, record bool) {
	var wg sync.WaitGroup
	for _, a := range as {
		if !record {
			a.rec = nil
		} else if a.rec == nil {
			a.rec = &recording{}
		}
		wg.Add(1)
		go func(a *actor) {
			defer wg.Done()
			if a.rate > 0 {
				a.openLoop(d)
			} else {
				a.closedLoop(d)
			}
		}(a)
	}
	wg.Wait()
}

// closedLoop sends the next statement as soon as the previous one returns,
// for d and up to the end of a cycle, or for the actor's fixed count.
func (a *actor) closedLoop(d time.Duration) {
	start := time.Now()
	for n := 0; ; n++ {
		if a.stmts > 0 {
			if n >= a.stmts {
				break
			}
		} else if n%a.cycle == 0 && time.Since(start) >= d {
			break
		}
		st := a.g()
		_, took, ok := a.c.do(&st)
		if ok && a.rec != nil {
			a.rec.add(&st, int64(took))
		}
	}
	if a.rec != nil {
		a.rec.elapsed += time.Since(start)
	}
}

// solo runs the actor's next n statements with no other client active and
// the log's Sync skipped, and returns the latency of each correct one: what
// the engine spends on a commit, without the device's share. One real Sync
// afterwards makes the n commits durable before anyone else writes.
func (a *actor) solo(n int) ([]int64, error) {
	lat := make([]int64, 0, n)
	io := a.c.e.io
	io.skipSync.Store(true)
	for i := 0; i < n; i++ {
		st := a.g()
		_, took, ok := a.c.do(&st)
		if ok {
			lat = append(lat, int64(took))
		}
	}
	io.skipSync.Store(false)
	return lat, io.log.Sync()
}

// openLoop sends statements on a fixed schedule whatever the database does.
// Latency runs from the instant a statement was due, so a stall is charged to
// every statement it delays; how late each one started is kept as well.
func (a *actor) openLoop(d time.Duration) {
	period := time.Second / time.Duration(a.rate)
	start := time.Now()
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * period)
		if due.Sub(start) >= d {
			break
		}
		st := a.g()
		waitUntil(due)
		late := time.Since(due)
		_, _, ok := a.c.do(&st)
		if ok && a.rec != nil {
			a.rec.add(&st, int64(time.Since(due)))
			a.rec.late = append(a.rec.late, int64(late))
		}
	}
	if a.rec != nil {
		a.rec.elapsed = time.Since(start)
	}
}

// waitUntil returns at t, not later: it sleeps only while t is far off and
// then yields in a loop, because a sleep here overshoots by a millisecond —
// two periods of the writer's schedule.
func waitUntil(t time.Time) {
	const slack = 3 * time.Millisecond
	if d := time.Until(t); d > slack {
		time.Sleep(d - slack)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
