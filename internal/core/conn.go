package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/exec"
	"tdbms/internal/plan"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
)

// errClosed reports statement execution against a closed database.
var errClosed = errors.New("core: database is closed")

// Conn executes statements for one session. It embeds the shared Database
// (catalog, storage, clock) and holds the per-caller state itself: range
// table, I/O account, temporary namer, and the session's own settings
// (as-of clock, batch size, commit durability). The buffer policy is not
// among them: it is the database's (Options), applied by its pools.
//
// Statements on one Conn are serialized by its own mutex; statements on
// different Conns follow the database's per-relation latching protocol:
// run derives the statement's latch set from its range table (shared for
// relations it reads, exclusive for the one it mutates), acquires the
// latches in sorted name order, and pins the statement's "now" before the
// body executes. The latch set is the statement's snapshot: it sees every
// statement that released those latches before it took them, and a writer
// reads the current state of the relation it holds exclusively. Every
// relation a statement latches, shared or exclusive, resolves to the
// session's view of it: a handle on the same pages, frames and access
// method state whose buffers charge the session's account, its one I/O
// counter. Only DDL runs on the root handles.
type Conn struct {
	*Database

	// mu serializes statements on this Conn and the session's setters.
	mu sync.Mutex

	// id is the session's number: 0 for the database's implicit default
	// session, whose temporaries keep the historical "tmp_<n>" names.
	id   int64
	name string
	// acct is the session's I/O account: the session's views charge it on
	// every fetch, hit, and flush, always on the goroutine running the
	// statement, so it needs no lock of its own; Stats reads it under mu.
	acct buffer.Stats
	// ranges maps a lowercased range variable to its lowercased relation
	// name (TQuel `range of e is employee`).
	ranges map[string]string
	tmpSeq int

	// The session's settings. nowAt, when set, is the session's default
	// "now" for analysis and DML timestamps (nil follows the database
	// clock); batch its executor batch size (positive is a row capacity,
	// zero the engine default, negative one row); asyncCommit
	// acknowledges its WAL commits without waiting for the log to reach
	// stable storage — an async commit a crash may lose, but never tear.
	nowAt       *temporal.Time
	batch       int
	asyncCommit bool

	// active is the relation graph of the statement in flight, keyed by
	// lowercased name: the session's views of the latched relations, or
	// the root map for DDL. Conn.handle resolves against it. graph is the
	// map a non-DDL statement's active graph is built in, reused by the
	// next one.
	active map[string]*relHandle
	graph  map[string]*relHandle
	// statsFn reads the I/O counters attributed to the statement in
	// flight: the session account (acctStats), or for DDL the root pool
	// counters.
	statsFn   func() buffer.Stats
	acctStats func() buffer.Stats

	// stmtNow pins "now" for the duration of a statement (pinned) so a
	// concurrent clock advance cannot shift the statement's time slice
	// mid-run.
	stmtNow temporal.Time
	pinned  bool
	// walAck is the log tail the statement in flight must see synced
	// before it acknowledges (zero when nothing was committed). Set by the
	// commit protocol under the relation latches, consumed — and the sync
	// awaited, group-committed — by a deferred hook that runs after the
	// latches are released.
	walAck int64

	// views caches the session's per-relation views, built lazily on a
	// relation's first statement and dropped wholesale when a DDL epoch
	// passes: nothing but DDL replaces what a view shares with its root.
	views     map[string]*relHandle
	viewEpoch uint64

	// arena backs the tuples a statement's batch scans copy off their
	// pages. They die with the statement — results hold values, not tuple
	// bytes, and DML candidates are applied before it returns — so each
	// retrieve and each candidate collection resets it and the session's
	// next statement reuses the memory.
	arena am.Arena
	// helpers back the tuples the helper goroutines of a statement's
	// parallel scans and joins copy, one arena per operator and helper
	// (workerArena); they die with the arena.
	helpers [][]*am.Arena

	// cache holds the session's prepared statements by shape (cache.go).
	cache stmtCache
}

// workerArena is the arena of worker w of the statement's parallel scan
// or join op: the session arena for the calling goroutine's worker 0, a
// helper arena for the rest. The helpers of one operator may run while
// those of another do (a nested sequential scan's inner and outer), so
// each operator's have arenas of their own; statements run one at a time,
// so the operators of different statements share them.
func (c *Conn) workerArena(op, w int) *am.Arena {
	if w == 0 {
		return &c.arena
	}
	for len(c.helpers) <= op {
		c.helpers = append(c.helpers, nil)
	}
	for len(c.helpers[op]) < w {
		c.helpers[op] = append(c.helpers[op], new(am.Arena))
	}
	return c.helpers[op][w-1]
}

// resetArenas invalidates every tuple the statement's scans copied.
func (c *Conn) resetArenas() {
	c.arena.Reset()
	for _, op := range c.helpers {
		for _, a := range op {
			a.Reset()
		}
	}
}

// newConn opens session id on db.
func newConn(db *Database, id int64, name string) *Conn {
	c := &Conn{
		Database: db,
		id:       id,
		name:     name,
		ranges:   make(map[string]string),
	}
	c.acctStats = func() buffer.Stats { return c.acct }
	return c
}

// Name returns the session's display name.
func (c *Conn) Name() string { return c.name }

// NumRanges returns how many range variables the session has declared.
func (c *Conn) NumRanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ranges)
}

// NewSession opens a new session on the database. Sessions are cheap: the
// view cache is built lazily per relation on first use and shares all
// frames and pages with every other session.
func (db *Database) NewSession(name string) *Conn {
	n := db.connSeq.Add(1)
	if name == "" {
		name = fmt.Sprintf("session-%d", n)
	}
	return newConn(db, n, name)
}

// DefaultSession returns the implicit session that Database.Exec uses.
func (db *Database) DefaultSession() *Conn { return db.def }

// now is the session's default "now": the pinned statement time while a
// statement is in flight, else the as-of override when set, else the
// database clock. Pinning keeps every now() call within one statement
// consistent even if another session advances the clock mid-statement;
// with the clock only moving between statements (the benchmark's pattern)
// it changes nothing.
func (db *Conn) now() temporal.Time {
	if db.pinned {
		return db.stmtNow
	}
	return db.resolveNow()
}

// resolveNow reads the session's "now" sources directly, ignoring the
// statement pin.
func (db *Conn) resolveNow() temporal.Time {
	if db.nowAt != nil {
		return *db.nowAt
	}
	return db.clock.Now()
}

// SetNow overrides this session's default "now" without moving the shared
// database clock — the session sees the database as of t.
func (c *Conn) SetNow(t temporal.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nowAt = &t
}

// ClearNow removes the session's as-of override.
func (c *Conn) ClearNow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nowAt = nil
}

// Now returns the session's default "now".
func (c *Conn) Now() temporal.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now()
}

// Stats returns the I/O charged to this session since its creation (or the
// last ResetStats): every fetch, hit and flush of its views, and the pool
// counters' movement over its DDL statements. A statement in flight holds
// the session's mutex, so Stats waits for it to finish.
func (c *Conn) Stats() buffer.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acct
}

// ResetStats zeroes the session's account. The shared pool counters are
// owned by the database (Database.ResetStats).
func (c *Conn) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acct = buffer.Stats{}
}

// stmtLocks is a statement's declared latch set: the relations it reads
// (shared latches), the relations it mutates (exclusive latches), or — for
// anything touching the relation map or the catalog — the whole database
// (the schema latch held exclusively). A prepared retrieve brings its
// latches resolved and sorted (set).
type stmtLocks struct {
	ddlExcl bool
	read    []string
	write   []string
	set     *latchSet
}

// relsOf resolves the range variables referenced by a statement's clauses
// to relation names via the session's range table. Variables that do not
// resolve are skipped — execution will report them properly.
func (c *Conn) relsOf(targets []tquel.Target, where tquel.Expr, when tquel.TExpr, valid *tquel.ValidClause) []string {
	seen := map[string]bool{}
	for _, t := range targets {
		varsInExpr(t.Expr, seen)
	}
	if where != nil {
		varsInExpr(where, seen)
	}
	if when != nil {
		varsInTExpr(when, seen)
	}
	if valid != nil {
		for _, e := range []tquel.TExpr{valid.At, valid.From, valid.To} {
			if e != nil {
				varsInTExpr(e, seen)
			}
		}
	}
	var rels []string
	for v := range seen {
		if rel, ok := c.resolve(v); ok {
			rels = append(rels, rel)
		}
	}
	return rels
}

// lockSpec derives a statement's latch set before it runs. A nil statement
// (internal callers like EnableTwoLevel) is treated as DDL. The mapping
// mirrors the old read/write classification of isReadStmt, refined to
// relation grain: plain retrieves and range declarations latch their
// relations shared; DML latches its target exclusively and its other
// range variables shared; retrieve-into, DDL, and unknown statements
// serialize on the schema latch (retrieve-into creates a relation). A
// plain retrieve is looked up in the statement cache, whose entry holds
// the latch set.
func (c *Conn) lockSpec(stmt tquel.Statement) stmtLocks {
	c.cache.stmt, c.cache.hit = nil, nil
	switch s := stmt.(type) {
	case *tquel.RangeStmt:
		return stmtLocks{read: []string{s.Rel}}
	case *tquel.RetrieveStmt:
		if s.Into != "" {
			return stmtLocks{ddlExcl: true}
		}
		if e := c.cache.lookup(c, s); e != nil {
			return stmtLocks{set: e.locks}
		}
		return stmtLocks{read: c.relsOf(s.Targets, s.Where, s.When, s.Valid)}
	case *tquel.AppendStmt:
		return stmtLocks{
			write: []string{s.Rel},
			read:  c.relsOf(s.Targets, s.Where, s.When, s.Valid),
		}
	case *tquel.DeleteStmt:
		return c.dmlLocks(s.Var, nil, s.Where, s.When, nil)
	case *tquel.ReplaceStmt:
		return c.dmlLocks(s.Var, s.Targets, s.Where, s.When, s.Valid)
	case *tquel.CopyStmt:
		if s.Into {
			return stmtLocks{read: []string{s.Rel}}
		}
		return stmtLocks{write: []string{s.Rel}}
	case *tquel.AnalyzeStmt:
		// Rebuilding one relation's statistics mutates its descriptor;
		// the database-wide form serializes on the schema latch.
		if s.Rel != "" {
			return stmtLocks{write: []string{s.Rel}}
		}
		return stmtLocks{ddlExcl: true}
	}
	return stmtLocks{ddlExcl: true}
}

// dmlLocks is the latch set of a delete/replace: the target variable's
// relation exclusive, every other referenced relation shared.
func (c *Conn) dmlLocks(v string, targets []tquel.Target, where tquel.Expr, when tquel.TExpr, valid *tquel.ValidClause) stmtLocks {
	locks := stmtLocks{read: c.relsOf(targets, where, when, valid)}
	if rel, ok := c.resolve(v); ok {
		locks.write = []string{rel}
	}
	return locks
}

// run executes one statement body with the session prepared: the schema
// latch, the statement's relation latches (sorted), the pinned "now", the
// statement graph of views (root handles for DDL), and the stats source.
// It adds the statement's I/O delta to the result, exactly as ExecStmt
// always has.
func (c *Conn) run(stmt tquel.Statement, fn func() (*Result, error)) (res *Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	db := c.Database
	locks := c.lockSpec(stmt)
	if locks.ddlExcl {
		db.ddl.Lock()
		defer db.ddl.Unlock()
	} else {
		db.ddl.RLock()
		defer db.ddl.RUnlock()
	}
	if db.closed {
		return nil, errClosed
	}
	walOn := db.wal != nil && (locks.ddlExcl || len(locks.write) > 0)

	// Commit durability runs after the relation latches are released
	// (registered before them, so it unwinds after them): other writers of
	// the same relations proceed — and join the same group-committed sync —
	// while this statement waits for its acknowledged tail.
	if walOn && !locks.ddlExcl {
		defer func() {
			lsn := c.walAck
			c.walAck = 0
			if err != nil || lsn == 0 || c.asyncCommit {
				return
			}
			if werr := c.walWaitDurable(lsn); werr != nil {
				res, err = nil, werr
			}
		}()
	}

	ls := locks.set
	if ls == nil {
		ls = db.newLatchSet(locks.read, locks.write)
	}
	ls.acquire()
	defer ls.release()

	// Resolve the statement graph and the stats source. DDL runs on the
	// root handles and is charged their counters' movement. Every other
	// statement resolves each relation it latches, shared or exclusive, to
	// the session's view, so the account sees all of its I/O as it
	// happens; the views it holds exclusively are what its commit logs.
	var writes []*relHandle
	if locks.ddlExcl {
		c.active = db.rels
		c.statsFn = db.sumStats
		defer func() { db.epoch++ }() // under the exclusive schema latch, even on error
	} else {
		if c.graph == nil {
			c.graph = make(map[string]*relHandle, len(ls.rels))
		}
		active := c.graph
		clear(active)
		for _, lr := range ls.rels {
			h, ok := db.rels[lr.name]
			if !ok {
				continue // the statement will report the missing relation
			}
			v := c.viewFor(lr.name, h)
			active[lr.name] = v
			if lr.excl {
				writes = append(writes, v)
			}
		}
		c.active = active
		c.statsFn = c.acctStats
	}
	defer func() { c.active, c.statsFn = nil, nil }()

	// Pin the statement's snapshot time.
	c.stmtNow, c.pinned = c.resolveNow(), true
	defer func() { c.pinned = false }()

	before := c.statsFn()
	res, err = fn()
	if err != nil {
		return nil, err
	}
	// Commit: write the dirty frames through and append the written pages
	// and the end record to the log, in one append, while the exclusive
	// latches still fence the frames. DDL instead ends in a full
	// checkpoint — its structural changes (file creation, removal,
	// rebuild) are not page-grained, so it writes everything back and
	// empties the log. A failed append fails the
	// statement: its pages stay parked and unlogged, so the work survives
	// only if a later commit or checkpoint logs it, and an acknowledged
	// statement can never be lost.
	if walOn {
		if locks.ddlExcl {
			if werr := db.walCheckpointLocked(true); werr != nil {
				return nil, werr
			}
		} else if len(writes) > 0 {
			lsn, werr := c.walCommit(writes)
			if werr != nil {
				return nil, werr
			}
			c.walAck = lsn
		}
	}
	d := c.statsFn().Sub(before)
	res.Input += d.Reads
	res.Output += d.Writes
	res.InputOps += d.ReadOps
	if locks.ddlExcl {
		// Root-handle I/O bypasses the account; charge the session its
		// delta. A view's I/O charged itself.
		c.acct = c.acct.Add(d)
	}
	return res, nil
}

// batchCap is the session's executor batch capacity: zero asks for the
// default, and anything below one row is one row.
func (c *Conn) batchCap() int {
	if c.batch == 0 {
		return exec.DefaultBatchCap
	}
	return max(c.batch, 1)
}

// SetBatchSize sets this session's executor batch size for subsequent
// statements: rows > 0 is a batch capacity, rows == 0 asks for the engine
// default, rows < 0 means capacity 1, which is tuple-at-a-time. Every
// capacity reads exactly the same pages in the same order; the setting
// trades interpretation overhead, not I/O.
func (c *Conn) SetBatchSize(rows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batch = rows
}

// viewFor returns the session's cached view of one relation, building it
// on first use and resetting the whole cache when a DDL epoch passed. A
// view shares every page, frame, directory and access-method root with
// the root handle, so it stays current across every other session's
// writes; only the accounting differs. Caller holds the schema latch.
func (c *Conn) viewFor(name string, h *relHandle) *relHandle {
	db := c.Database
	if c.views == nil || c.viewEpoch != db.epoch {
		c.views = make(map[string]*relHandle, len(db.rels))
		c.viewEpoch = db.epoch
	}
	v, ok := c.views[name]
	if !ok {
		v = h.withAccount(&c.acct)
		c.views[name] = v
	}
	return v
}

// handle resolves a relation against the statement's active graph. A name
// that exists in the database but not in the graph means the latch-set
// derivation missed a relation the statement touches — an internal
// invariant violation, reported as such rather than as a missing relation.
func (db *Conn) handle(name string) (*relHandle, error) {
	key := strings.ToLower(name)
	if h, ok := db.active[key]; ok {
		return h, nil
	}
	if _, exists := db.rels[key]; exists {
		return nil, fmt.Errorf("core: internal: relation %q touched outside the statement's latch set", name)
	}
	return nil, fmt.Errorf("core: relation %q does not exist", name)
}

// relForVar resolves a range variable to its relation handle. A binding
// whose relation has been destroyed is dropped lazily — destroy cannot
// reach into other sessions' range tables. A binding whose relation still
// exists but is outside the statement's latch set surfaces the internal
// error from handle instead of being dropped.
func (db *Conn) relForVar(v string) (*relHandle, error) {
	if rel, ok := db.resolve(v); ok {
		h, err := db.handle(rel)
		if err == nil {
			return h, nil
		}
		if _, exists := db.rels[rel]; exists {
			return nil, err
		}
		delete(db.ranges, strings.ToLower(v))
		db.cache.clear()
	}
	return nil, fmt.Errorf("core: range variable %q is not declared (use `range of %s is <relation>`)", v, v)
}

// resolve looks up a range variable's relation (lowercased).
func (c *Conn) resolve(v string) (string, bool) {
	rel, ok := c.ranges[strings.ToLower(v)]
	return rel, ok
}

// nextTemp names the session's next temporary relation. The default
// session keeps the historical names; other sessions get a session-scoped
// prefix so concurrent queries on a disk-backed database never collide on
// temporary file names.
func (c *Conn) nextTemp() string {
	c.tmpSeq++
	if c.id == 0 {
		return fmt.Sprintf("tmp_%d", c.tmpSeq)
	}
	return fmt.Sprintf("tmp_s%d_%d", c.id, c.tmpSeq)
}

// Exec parses and executes a sequence of TQuel statements on this session,
// returning the result of the last retrieve (or a row-count result for
// DML).
func (c *Conn) Exec(src string) (*Result, error) {
	stmts, err := tquel.ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("core: empty statement")
	}
	var res *Result
	for _, s := range stmts {
		res, err = c.ExecStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecStmt executes one parsed statement on this session. The result's
// Input/Output fields report the page I/O the statement performed against
// user relations, their indexes, and any temporary relations.
func (c *Conn) ExecStmt(stmt tquel.Statement) (*Result, error) {
	return c.run(stmt, func() (*Result, error) {
		return c.execDispatch(stmt)
	})
}

func (db *Conn) execDispatch(stmt tquel.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *tquel.RangeStmt:
		if _, err := db.handle(s.Rel); err != nil {
			return nil, err
		}
		v, rel := strings.ToLower(s.Var), strings.ToLower(s.Rel)
		if db.ranges[v] != rel {
			db.ranges[v] = rel
			db.cache.clear() // entries resolved their variables through the old table
		}
		return &Result{}, nil
	case *tquel.CreateStmt:
		return db.execCreate(s)
	case *tquel.ModifyStmt:
		return db.execModify(s)
	case *tquel.DestroyStmt:
		return db.execDestroy(s)
	case *tquel.IndexStmt:
		return db.execIndex(s)
	case *tquel.CopyStmt:
		return db.execCopy(s)
	case *tquel.RetrieveStmt:
		return db.execRetrieve(s)
	case *tquel.AppendStmt:
		return db.execAppend(s)
	case *tquel.DeleteStmt:
		return db.execDelete(s)
	case *tquel.ReplaceStmt:
		return db.execReplace(s)
	case *tquel.AnalyzeStmt:
		return db.execAnalyze(s)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

// QueryPlan executes a retrieve on this session and returns both the
// result and the executed physical plan, annotated with the pages each
// operator read and wrote. The result's Input/Output totals are computed
// the same way ExecStmt computes them, so the tree's attribution sums to
// them.
func (c *Conn) QueryPlan(src string) (*Result, *plan.Tree, error) {
	stmt, err := tquel.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	ret, ok := stmt.(*tquel.RetrieveStmt)
	if !ok {
		return nil, nil, fmt.Errorf("core: explain applies to retrieve statements, not %T", stmt)
	}
	var t *plan.Tree
	res, err := c.run(ret, func() (*Result, error) {
		var res *Result
		var err error
		res, t, err = c.runRetrieve(ret)
		c.cache.forget() // the tree is the caller's now
		return res, err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, t, nil
}

// Explain runs a retrieve statement on this session and describes the plan
// it executed: the access path per range variable, the multi-variable
// strategy, and the pages of I/O each operator actually caused — measured,
// not estimated.
func (c *Conn) Explain(src string) (string, error) {
	res, t, err := c.QueryPlan(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "  totals: input=%d output=%d pages", res.Input, res.Output)
	if res.TempInput+res.TempOutput > 0 {
		fmt.Fprintf(&b, " (temporaries: %d in, %d out)", res.TempInput, res.TempOutput)
	}
	fmt.Fprintf(&b, ", %d row(s)\n", len(res.Rows))
	return b.String(), nil
}

// EnableTwoLevel converts a relation to the two-level store of Section 6
// under the schema latch (it swaps the relation's source wholesale).
// Existing current versions stay in the primary store; existing history
// versions move to the history store.
func (c *Conn) EnableTwoLevel(name string, clustered bool) error {
	_, err := c.run(nil, func() (*Result, error) {
		h, err := c.handle(name)
		if err != nil {
			return nil, err
		}
		if !h.desc.Type.HasTransactionTime() && !h.desc.Type.HasValidTime() {
			return nil, fmt.Errorf("core: two-level store needs a versioned relation, %q is static", name)
		}
		if _, already := h.src.(*twoLevelSource); already {
			return nil, fmt.Errorf("core: relation %q already uses a two-level store", name)
		}
		if err := c.convertToTwoLevel(h, clustered); err != nil {
			return nil, err
		}
		return &Result{}, nil
	})
	return err
}
