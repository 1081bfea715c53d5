// Package session holds the per-caller state of the temporal DBMS: the
// range-variable table, the optional as-of clock override, the session's
// I/O account, and the temporary-relation namer. Everything here used to
// live as mutable fields on core.Database, which made two callers unable to
// even declare range variables concurrently; extracting it leaves the
// database itself shareable (catalog + storage + clock) and makes a session
// the unit of isolation for concurrent execution — readers and writers
// alike, since statements latch individual relations rather than the
// database (see core's per-relation latching and first-updater-wins
// conflict policy, core.Conn.SetConflictRetry).
//
// The package deliberately sits below core and beside buffer: it may not
// import the planner (internal/plan) or the raw page files
// (internal/storage) — a session is bookkeeping, not an access path — and
// tdbvet's sessionstate check enforces that.
//
// A Session is not safe for concurrent use; core.Conn serializes the
// statements of one session, and distinct sessions never share a Session
// value.
package session

import (
	"fmt"
	"strings"

	"tdbms/internal/buffer"
	"tdbms/internal/temporal"
)

// Session is one caller's private state.
type Session struct {
	id   int64
	name string
	acct *buffer.Account

	// ranges maps a lowercased range variable to its lowercased relation
	// name (TQuel `range of e is employee`).
	ranges map[string]string

	// nowAt, when set, overrides the database clock as this session's
	// default "now" for query analysis and DML timestamps.
	nowAt  temporal.Time
	hasNow bool

	// pol, when set, overrides the database's default buffer policy for
	// this session's reads (tquel `\set buffer`). Unset sessions follow
	// the database — one frame, no readahead, in measurement mode.
	pol    buffer.Policy
	hasPol bool

	// batch, when set, overrides the database's default executor batch
	// size for this session's statements: positive is a row capacity, zero
	// asks for the engine default, negative means one row.
	batch    int
	hasBatch bool

	// syncCommit, when set, overrides the database's WAL sync policy for
	// this session's writes: true waits (group-committed) for the log to
	// reach stable storage before a write statement acknowledges, false
	// acknowledges immediately — an async commit a crash may lose, but
	// never tear.
	syncCommit    bool
	hasSyncCommit bool

	tmpSeq int
}

// New creates a session. ID 0 is the database's implicit default session;
// its temporaries keep the historical "tmp_<n>" names so single-session
// runs (the benchmark) are unchanged.
func New(id int64, name string) *Session {
	return &Session{
		id:     id,
		name:   name,
		acct:   buffer.NewAccount(),
		ranges: make(map[string]string),
	}
}

// ID returns the session's numeric identity.
func (s *Session) ID() int64 { return s.id }

// Name returns the session's display name.
func (s *Session) Name() string { return s.name }

// Account returns the session's I/O account. Buffer handles derived for
// this session charge it on every fetch, hit, and flush.
func (s *Session) Account() *buffer.Account { return s.acct }

// Bind declares a range variable over a relation.
func (s *Session) Bind(v, rel string) {
	s.ranges[strings.ToLower(v)] = strings.ToLower(rel)
}

// Resolve looks up a range variable's relation.
func (s *Session) Resolve(v string) (string, bool) {
	rel, ok := s.ranges[strings.ToLower(v)]
	return rel, ok
}

// Drop removes a range variable (used when its relation was destroyed).
func (s *Session) Drop(v string) {
	delete(s.ranges, strings.ToLower(v))
}

// Ranges returns the declared variables in no particular order.
func (s *Session) Ranges() map[string]string {
	out := make(map[string]string, len(s.ranges))
	for v, rel := range s.ranges {
		out[v] = rel
	}
	return out
}

// SetNow overrides the session's default "now".
func (s *Session) SetNow(t temporal.Time) {
	s.nowAt, s.hasNow = t, true
}

// ClearNow removes the override; the session follows the database clock.
func (s *Session) ClearNow() {
	s.nowAt, s.hasNow = 0, false
}

// NowOverride returns the override and whether one is set.
func (s *Session) NowOverride() (temporal.Time, bool) {
	return s.nowAt, s.hasNow
}

// SetBufferPolicy overrides the session's buffer policy. This (together
// with engine configuration in core.Options) is the sanctioned place to
// construct a buffer.Policy — tdbvet's bufpolicy check keeps it that way,
// so measurement mode cannot drift by a stray literal elsewhere.
func (s *Session) SetBufferPolicy(frames, readahead int) {
	s.pol = buffer.Policy{Frames: frames, Readahead: readahead}.Normalize()
	s.hasPol = true
}

// ClearBufferPolicy removes the override; the session follows the
// database's default policy.
func (s *Session) ClearBufferPolicy() {
	s.pol, s.hasPol = buffer.Policy{}, false
}

// BufferPolicy returns the override and whether one is set.
func (s *Session) BufferPolicy() (buffer.Policy, bool) {
	return s.pol, s.hasPol
}

// SetBatchSize overrides the session's executor batch size: rows > 0 is a
// batch capacity, rows == 0 asks for the engine default, rows < 0 means
// one row (tuple-at-a-time).
func (s *Session) SetBatchSize(rows int) {
	s.batch, s.hasBatch = rows, true
}

// ClearBatchSize removes the override; the session follows the database's
// default batch size.
func (s *Session) ClearBatchSize() {
	s.batch, s.hasBatch = 0, false
}

// BatchSize returns the override and whether one is set.
func (s *Session) BatchSize() (int, bool) {
	return s.batch, s.hasBatch
}

// SetSyncCommit overrides the session's commit-durability behavior on a
// write-ahead-logged database (see core.WALSyncPolicy for the default).
func (s *Session) SetSyncCommit(on bool) {
	s.syncCommit, s.hasSyncCommit = on, true
}

// ClearSyncCommit removes the override; the session follows the database's
// WAL sync policy.
func (s *Session) ClearSyncCommit() {
	s.syncCommit, s.hasSyncCommit = false, false
}

// SyncCommit returns the override and whether one is set.
func (s *Session) SyncCommit() (bool, bool) {
	return s.syncCommit, s.hasSyncCommit
}

// NextTemp names the session's next temporary relation. The default
// session keeps the historical names; other sessions get a session-scoped
// prefix so concurrent queries on a disk-backed database never collide on
// temporary file names.
func (s *Session) NextTemp() string {
	s.tmpSeq++
	if s.id == 0 {
		return fmt.Sprintf("tmp_%d", s.tmpSeq)
	}
	return fmt.Sprintf("tmp_s%d_%d", s.id, s.tmpSeq)
}
