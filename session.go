package tdbms

import (
	"time"

	"tdbms/internal/core"
	"tdbms/internal/temporal"
)

// Session is an independent execution context on a shared database: its own
// range-variable table, its own default "now", and its own I/O statistics.
// Sessions execute concurrently with each other — each statement latches
// only the relations it names (shared for reads, exclusive for writes), so
// writers on different relations proceed in parallel and readers never
// wait for a writer of an unrelated relation. A statement sees the state
// its latches admit it to: a modification reads the current versions of the
// relation it holds exclusively, so writers of one relation run one at a
// time and none loses another's update.
//
//	db := tdbms.MustOpen(tdbms.Options{})
//	db.Exec(`create interval emp (name = c20, salary = i4)`)
//
//	s1, s2 := db.Session("reporting"), db.Session("audit")
//	s1.Exec(`range of e is emp`)        // bindings are private to s1
//	s2.Exec(`range of x is emp`)        // ...and to s2
//	res, _ := s1.Exec(`retrieve (e.name) where e.salary > 100`)
//
// A Session itself is not safe for concurrent use; run each session from
// one goroutine (or add your own serialization) and use one session per
// concurrent caller.
type Session struct {
	conn *core.Conn
}

// Session opens a new session on the database. name is a display label;
// empty picks "session-<n>". Sessions are cheap: they share every page and
// buffer frame with the rest of the database.
func (db *DB) Session(name string) *Session {
	return &Session{conn: db.inner.NewSession(name)}
}

// Name returns the session's display name.
func (s *Session) Name() string { return s.conn.Name() }

// Exec parses and executes one or more TQuel statements in this session,
// returning the result of the last one. Range declarations bind variables
// in this session only.
func (s *Session) Exec(src string) (*Result, error) {
	res, err := s.conn.Exec(src)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Columns:     res.Cols,
		Affected:    res.Affected,
		InputPages:  res.Input,
		OutputPages: res.Output,
	}
	for _, row := range res.Rows {
		vals := make([]Value, len(row))
		for i, v := range row {
			vals[i] = fromInternal(v)
		}
		out.Rows = append(out.Rows, vals)
	}
	return out, nil
}

// Explain runs a retrieve in this session and describes the plan it
// executed, with per-operator page I/O.
func (s *Session) Explain(query string) (string, error) { return s.conn.Explain(query) }

// Stats returns the page I/O charged to this session since its creation or
// the last ResetStats. Summed over every session (plus the default session
// behind DB.Exec), session stats account for exactly the database-wide
// counters of DB.Stats.
func (s *Session) Stats() IOStats {
	st := s.conn.Stats()
	return IOStats{Reads: st.Reads, Writes: st.Writes, Hits: st.Hits}
}

// ResetStats zeroes this session's counters (the shared counters of
// DB.Stats are unaffected).
func (s *Session) ResetStats() { s.conn.ResetStats() }

// SetNow gives the session its own "now" without moving the shared clock:
// queries and updates in this session see the database as of t.
func (s *Session) SetNow(t time.Time) { s.conn.SetNow(temporal.FromUnix(t.UTC())) }

// ClearNow removes the session's as-of override; the session follows the
// database clock again.
func (s *Session) ClearNow() { s.conn.ClearNow() }

// Now reports the session's default "now" — the as-of override if one is
// set, otherwise the database clock.
func (s *Session) Now() time.Time { return s.conn.Now().Unix() }
