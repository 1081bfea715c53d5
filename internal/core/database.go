// Package core implements the temporal DBMS itself — the paper's primary
// contribution (Section 4): a Database holding typed relations (static,
// rollback, historical, temporal), executing TQuel statements with the
// version-chain update semantics of Section 4 and the Ingres-style query
// processing of Section 5.3 (one-variable query interpreter, decomposition
// by one-variable detachment and tuple substitution), under the
// one-buffer-per-relation policy whose page counts the benchmark measures.
package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"tdbms/internal/am"
	"tdbms/internal/buffer"
	"tdbms/internal/catalog"
	"tdbms/internal/secindex"
	"tdbms/internal/storage"
	"tdbms/internal/temporal"
	"tdbms/internal/tquel"
	"tdbms/internal/wal"
)

// Options configure a Database.
type Options struct {
	// Dir, when non-empty, stores relations in page files under this
	// directory; otherwise everything is in memory.
	Dir string
	// Now sets the initial logical clock. Zero means the beginning of time;
	// the benchmark sets an explicit epoch.
	Now temporal.Time
	// BufferFrames and BufferReadahead are the database's buffer policy,
	// the one route by which it is set: every relation's pool is opened
	// with BufferFrames LRU frames, and a sequential walk's miss reads up
	// to BufferReadahead pages past the missed one in the same operation.
	// The zero values — one frame, no readahead — are the paper's
	// measurement policy (Section 5.1); larger values are for the
	// buffer-sensitivity ablation. Readahead is capped at BufferFrames-1.
	BufferFrames    int
	BufferReadahead int
	// WrapFile, when non-nil, wraps every storage file the database opens
	// (keyed by the relation or temporary name). The fault-injection tests
	// use it to splice a faultfs schedule under the buffer manager;
	// production code leaves it nil.
	WrapFile func(name string, f storage.File) storage.File
	// WAL enables write-ahead logging on a disk database (ignored when Dir
	// is empty): each commit appends the pages it wrote and an end record
	// to <Dir>/wal.log in one write, data files are written only at
	// checkpoints (Checkpoint, DDL, Close), and Open replays the committed
	// suffix past the last checkpoint — discarding any torn tail — before
	// reattaching relations. Logging sits below the buffer manager's I/O
	// counters, so the paper's page accounting is unchanged.
	WAL bool
	// WrapLog, when non-nil, wraps the write-ahead log file (named "wal").
	// The fault-injection tests use it to tear the log tail and count
	// syncs; production code leaves it nil.
	WrapLog func(name string, l storage.Log) storage.Log
}

// Database is a temporal database: a catalog of typed relations, their open
// storage files, and the logical clock. All per-caller state — range
// tables, as-of overrides, per-statement I/O accounting — lives in
// sessions (Conn); the Database itself is shared by every session under a
// per-relation latching protocol: statements latch exactly the relations
// they touch (shared for reads, exclusive for writes, in sorted name
// order), so writers to distinct relations run in parallel and readers
// never block behind unrelated writers. Only DDL — anything that mutates
// the relation map or the catalog — serializes the whole database.
type Database struct {
	opts  Options
	cat   *catalog.Catalog
	rels  map[string]*relHandle
	clock *temporal.Clock

	// ddl is the schema latch: DDL statements (create/modify/destroy/
	// index, retrieve-into, two-level conversion) and lifecycle operations
	// (checkpoint, close, stats reset) hold it exclusively; every other
	// statement holds it shared for its whole duration. It guards rels,
	// the catalog, epoch, and closed.
	ddl sync.RWMutex
	// latches hands out the per-relation statement latches.
	latches latchTable
	// epoch counts DDL statements (guarded by ddl held exclusively;
	// readers observe it under the shared latch). Sessions drop their
	// whole view cache when it moves.
	epoch uint64
	// closed marks a database whose files have been released; Close is
	// idempotent and later statements fail cleanly.
	closed bool
	// def is the implicit session behind Database.Exec.
	def *Conn
	// connSeq numbers explicitly created sessions.
	connSeq atomic.Int64

	// wal is the write-ahead log manager, nil unless Options.WAL is set on
	// a disk database. walStart is the replay start recorded in the
	// on-disk catalog: recovery scans the log from there. It is only
	// mutated where the catalog is written (checkpoints), under the
	// exclusive schema latch.
	wal      *wal.Manager
	walStart int64
}

// relHandle is an open relation: descriptor plus storage. The database
// holds the root handles; sessions reach a relation through views of them
// (withAccount).
type relHandle struct {
	desc    *catalog.Relation
	src     source
	indexes map[string]*secindex.Index
	bufs    []*buffer.Buffered // buffers(), on a view: DDL replaces the view
}

// withAccount clones the handle for a session: the same descriptor,
// pages, frames, directories and access-method roots, reached through
// buffer handles that charge the account a.
func (h *relHandle) withAccount(a *buffer.Stats) *relHandle {
	v := &relHandle{
		desc:    h.desc,
		src:     h.src.withAccount(a),
		indexes: make(map[string]*secindex.Index, len(h.indexes)),
	}
	for name, ix := range h.indexes {
		v.indexes[name] = ix.WithAccount(a)
	}
	v.bufs = v.buffers()
	return v
}

// marker returns the view's store when it keeps state outside its pages,
// else nil.
func (h *relHandle) marker() am.Marker {
	switch s := h.src.(type) {
	case *conventional:
		m, _ := s.file.(am.Marker)
		return m
	case *twoLevelSource:
		return s.Store
	}
	return nil
}

// arm starts a statement that writes the relation, through this view and
// holding it exclusively until end, as all or nothing: every buffer of the
// relation keeps the images of the pages the statement dirties
// (buffer.Buffered.Arm), and the store marks its state outside pages.
func (h *relHandle) arm() {
	for _, b := range h.bufs {
		b.Arm()
	}
	if m := h.marker(); m != nil {
		m.Mark()
	}
}

// end ends the statement arm started, which returned err. A failed one is
// undone — pages, root, chains and index directories as arm found them —
// and the statistics it noted into are dropped for analyze to rebuild, as
// a bulk load drops them. It returns err and the first page not put back.
func (h *relHandle) end(err error) error {
	var rerr error
	for _, b := range h.bufs {
		if e := b.End(err == nil); e != nil && rerr == nil {
			rerr = e
		}
	}
	if err == nil {
		return nil
	}
	if m := h.marker(); m != nil {
		m.Rewind()
	}
	for _, ix := range h.indexes {
		ix.Rewind()
	}
	h.desc.Stat = nil
	if rerr != nil {
		return fmt.Errorf("%w (rollback incomplete: %w)", err, rerr)
	}
	return err
}

// Open creates an empty in-memory database or, when opts.Dir names a
// directory with a catalog sidecar, reattaches the persisted relations.
func Open(opts Options) (*Database, error) {
	db := &Database{
		opts:  opts,
		cat:   catalog.New(),
		rels:  make(map[string]*relHandle),
		clock: temporal.NewClock(opts.Now),
	}
	db.def = newConn(db, 0, "default")
	if opts.Dir != "" && opts.WAL {
		l, err := storage.OpenDiskLog(filepath.Join(opts.Dir, "wal.log"))
		if err != nil {
			return nil, err
		}
		var lg storage.Log = l
		if opts.WrapLog != nil {
			lg = opts.WrapLog("wal", lg)
		}
		db.wal = wal.NewManager(lg)
	}
	if err := db.loadCatalog(); err != nil {
		// Release whatever files a partial load opened, so a failed Open
		// leaves no stale handles behind.
		for _, h := range db.rels {
			for _, b := range h.buffers() {
				_ = b.Close() // already failing; the load error wins
			}
		}
		if db.wal != nil {
			_ = db.wal.Close()
		}
		db.closed = true
		return nil, err
	}
	return db, nil
}

// MustOpen is Open for in-memory databases, which cannot fail.
func MustOpen(opts Options) *Database {
	if opts.Dir != "" {
		panic("core: MustOpen is for in-memory databases; use Open with a directory")
	}
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// Clock exposes the logical clock (the benchmark advances it between
// update rounds).
func (db *Database) Clock() *temporal.Clock { return db.clock }

// WALEnabled reports whether this database commits through a write-ahead
// log (Options.WAL on a disk-backed open).
func (db *Database) WALEnabled() bool { return db.wal != nil }

// Catalog exposes the system catalog for inspection.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// newFile creates a fresh paged file for the named relation or temporary.
func (db *Database) newFile(name string) (storage.File, error) {
	var f storage.File
	if db.opts.Dir == "" {
		f = storage.NewMem()
	} else {
		d, err := storage.OpenDisk(filepath.Join(db.opts.Dir, strings.ToLower(name)+".tdb"))
		if err != nil {
			return nil, err
		}
		f = d
	}
	// The log wrapper sits directly above the raw file — below both the
	// buffer counters and any fault wrapper — so logging never shows up in
	// the paper's page accounting and injected faults tear the outermost
	// write like any other. Secondary-index files stay unlogged: indexes
	// are rebuilt from the base relation on every open.
	if db.wal != nil && !strings.Contains(strings.ToLower(name), "~ix") {
		f = wal.Logged(name, f, db.wal)
	}
	if db.opts.WrapFile != nil {
		f = db.opts.WrapFile(name, f)
	}
	return f, nil
}

// newBuffer wraps a fresh file for name in a buffer under the database's
// policy (one frame, no readahead, under the paper's policy).
func (db *Database) newBuffer(name string) (*buffer.Buffered, error) {
	b, _, err := db.newBufferFile(name)
	return b, err
}

// newBufferFile is newBuffer, also returning the wrapped file underneath —
// WAL recovery writes replayed pages through it before the access method
// is attached.
func (db *Database) newBufferFile(name string) (*buffer.Buffered, storage.File, error) {
	f, err := db.newFile(name)
	if err != nil {
		return nil, nil, err
	}
	return db.pool(name, f), f, nil
}

// newTempBuffer wraps a fresh memory-backed file for a query temporary.
// Temporaries are memory-backed even on disk databases: they die with the
// statement, and a disk file here would outlive the query only to be
// silently re-opened — stale contents included — by a later session reusing
// the temp name.
func (db *Database) newTempBuffer(name string) (*buffer.Buffered, error) {
	var f storage.File = storage.NewMem()
	if db.opts.WrapFile != nil {
		f = db.opts.WrapFile(name, f)
	}
	return db.pool(name, f), nil
}

// pool wraps f in a buffer under the database's policy.
func (db *Database) pool(name string, f storage.File) *buffer.Buffered {
	return buffer.NewPooled(name, f, db.opts.BufferFrames, db.opts.BufferReadahead)
}

// handle returns the open handle for a relation name.
func (db *Database) handle(name string) (*relHandle, error) {
	h, ok := db.rels[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: relation %q does not exist", name)
	}
	return h, nil
}

// Relation returns the catalog descriptor for a relation. Descriptors are
// only mutated by DDL, so the shared schema latch suffices.
func (db *Database) Relation(name string) (*catalog.Relation, error) {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	h, err := db.handle(name)
	if err != nil {
		return nil, err
	}
	return h.desc, nil
}

// NumPages reports the current size of a relation in pages (Figure 5's
// space metric). It latches the relation shared so a concurrent writer's
// structural changes cannot be observed mid-flight.
func (db *Database) NumPages(name string) (int, error) {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	h, err := db.handle(name)
	if err != nil {
		return 0, err
	}
	ls := db.newLatchSet([]string{name}, nil)
	ls.acquire()
	defer ls.release()
	return h.src.NumPages(), nil
}

// buffers lists all buffered files of a relation: storage plus indexes.
func (h *relHandle) buffers() []*buffer.Buffered {
	bs := h.src.Buffers()
	for _, ix := range h.indexes {
		bs = append(bs, ix.Buffers()...)
	}
	return bs
}

// ResetStats zeroes the I/O counters of every relation. The benchmark calls
// it before each measured query. The exclusive schema latch drains every
// in-flight statement first, so no counter is zeroed mid-statement.
// Session accounts are owned by their sessions (Conn.ResetStats).
func (db *Database) ResetStats() {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	for _, h := range db.rels {
		for _, b := range h.buffers() {
			b.ResetStats()
		}
	}
}

// InvalidateBuffers empties every relation's buffer frame so the next query
// starts cold, as each benchmark measurement did. Exclusive on the schema
// latch: frames must not vanish under a running statement. On a WAL
// database the flushed frames are parked, not written: the data files and
// the log change only at the next commit or checkpoint.
//
//tdbvet:flushpath invalidation flushes every frame while the exclusive schema latch drains every statement
func (db *Database) InvalidateBuffers() error {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	for _, h := range db.rels {
		for _, b := range h.buffers() {
			if err := b.Invalidate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats sums the I/O counters over all user relations and their indexes.
func (db *Database) Stats() buffer.Stats {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	return db.sumStats()
}

// sumStats sums every relation's pool counters. Each pool guards its
// counters with its own mutex, so this is safe to call concurrently with
// running statements from anywhere that holds the schema latch in either
// mode (the old db.rw scheme needed an unlocked variant for in-statement
// attribution; per-pool locking removed that special case). The sum is
// exact whenever no statement is in flight and never torn otherwise.
func (db *Database) sumStats() buffer.Stats {
	var s buffer.Stats
	for _, h := range db.rels {
		for _, b := range h.buffers() {
			s = s.Add(b.Stats())
		}
	}
	return s
}

// RelationStats returns the I/O counters of one relation (storage plus
// indexes).
func (db *Database) RelationStats(name string) (buffer.Stats, error) {
	db.ddl.RLock()
	defer db.ddl.RUnlock()
	h, err := db.handle(name)
	if err != nil {
		return buffer.Stats{}, err
	}
	var s buffer.Stats
	for _, b := range h.buffers() {
		s = s.Add(b.Stats())
	}
	return s, nil
}

// Exec parses and executes a sequence of TQuel statements on the implicit
// default session, returning the result of the last retrieve (or a
// row-count result for DML).
func (db *Database) Exec(src string) (*Result, error) {
	return db.def.Exec(src)
}

// ExecStmt executes one parsed statement on the implicit default session.
// The result's Input/Output fields report the page I/O the statement
// performed against user relations, their indexes, and any temporary
// relations.
func (db *Database) ExecStmt(stmt tquel.Statement) (*Result, error) {
	return db.def.ExecStmt(stmt)
}

// EnableTwoLevel converts a relation to the two-level store of Section 6.
// Existing current versions stay in the primary store; existing history
// versions move to the history store.
func (db *Database) EnableTwoLevel(name string, clustered bool) error {
	return db.def.EnableTwoLevel(name, clustered)
}
