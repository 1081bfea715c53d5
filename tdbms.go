// Package tdbms is a temporal database management system: a reimplementation
// of the TQuel prototype built on Ingres by Ahn & Snodgrass and measured in
// "Performance Evaluation of a Temporal Database Management System" (1986).
//
// It supports the four database types of the paper's taxonomy — static,
// rollback, historical, and temporal relations — queried and updated in
// TQuel, a superset of Quel with valid, when, and as-of clauses:
//
//	db := tdbms.Open(tdbms.Options{})
//	db.Exec(`create persistent interval emp (name = c20, salary = i4)`)
//	db.Exec(`append to emp (name = "ann", salary = 100)`)
//	db.Exec(`range of e is emp`)
//	res, _ := db.Exec(`retrieve (e.name, e.salary) when e overlap "now"`)
//
// Relations are stored on 1024-byte pages under heap, static-hash, or ISAM
// organizations (chosen with `modify`), with the paper's append-only
// version-chain update semantics. Every statement reports its cost in page
// I/Os under the one-buffer-per-relation policy, which is the metric the
// paper's benchmark (and this repository's benchmark harness) measures.
package tdbms

import (
	"fmt"
	"time"

	"tdbms/internal/core"
	"tdbms/internal/temporal"
	"tdbms/internal/tuple"
)

// Options configure a database.
type Options struct {
	// Dir stores relations in page files under this directory; empty keeps
	// everything in memory.
	Dir string
	// Now sets the initial logical clock. The zero value means the current
	// wall-clock time.
	Now time.Time
	// TwoLevelStore stores versioned relations with current versions in a
	// primary store and history in a separate history store (the Section 6
	// enhancement), making non-temporal queries independent of the update
	// count.
	TwoLevelStore bool
	// ClusteredHistory co-locates history versions of the same tuple.
	ClusteredHistory bool
	// BufferFrames sets the buffer frames per relation, for the whole
	// database and every session on it. Zero or one gives the paper's
	// measurement policy of Section 5.1.
	BufferFrames int
}

// DB is an open temporal database.
type DB struct {
	inner *core.Database
}

// Open creates a database. With a Dir whose catalog sidecar exists, the
// persisted relations are reattached (the logical clock resumes from the
// later of opts.Now and the saved clock).
func Open(opts Options) (*DB, error) {
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	inner, err := core.Open(core.Options{
		Dir:              opts.Dir,
		Now:              temporal.FromUnix(now.UTC()),
		TwoLevelStore:    opts.TwoLevelStore,
		ClusteredHistory: opts.ClusteredHistory,
		BufferFrames:     opts.BufferFrames,
	})
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// MustOpen is Open for in-memory databases, which cannot fail.
func MustOpen(opts Options) *DB {
	if opts.Dir != "" {
		panic("tdbms: MustOpen is for in-memory databases; use Open with a directory")
	}
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// Checkpoint flushes every buffer and persists the catalog of a
// disk-backed database.
func (db *DB) Checkpoint() error { return db.inner.Checkpoint() }

// Close checkpoints and releases every file. The DB must not be used
// afterwards.
func (db *DB) Close() error { return db.inner.Close() }

// Kind classifies result values.
type Kind int

// Value kinds.
const (
	Int Kind = iota
	Float
	String
	Time
)

// Value is one attribute value in a query result.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// Int returns the value as an integer (truncating floats).
func (v Value) Int() int64 {
	if v.kind == Float {
		return int64(v.f)
	}
	return v.i
}

// Float returns the value as a float.
func (v Value) Float() float64 {
	if v.kind == Float {
		return v.f
	}
	return float64(v.i)
}

// Time returns a temporal value as a UTC time. forever reports the
// distinguished "forever" timestamp of open-ended versions.
func (v Value) Time() (t time.Time, forever bool) {
	tt := temporal.Time(v.i)
	return tt.Unix(), tt.IsForever()
}

// String renders the value; temporal values use the second resolution.
func (v Value) String() string {
	switch v.kind {
	case Float:
		return fmt.Sprintf("%g", v.f)
	case String:
		return v.s
	case Time:
		return temporal.Format(temporal.Time(v.i), temporal.Second)
	default:
		return fmt.Sprintf("%d", v.i)
	}
}

// Str returns the value as a string attribute.
func (v Value) Str() string { return v.s }

func fromInternal(v tuple.Value) Value {
	switch v.Kind {
	case tuple.F4, tuple.F8:
		return Value{kind: Float, f: v.F}
	case tuple.Char:
		return Value{kind: String, s: v.S}
	case tuple.Temporal:
		return Value{kind: Time, i: v.I}
	default:
		return Value{kind: Int, i: v.I}
	}
}

// Result is the outcome of a statement.
type Result struct {
	// Columns names the output attributes of a retrieve (including the
	// implicit valid_from/valid_to columns of temporal results).
	Columns []string
	// Rows holds the retrieved tuples.
	Rows [][]Value
	// Affected counts tuples touched by DML.
	Affected int
	// InputPages and OutputPages are the statement's page I/O under the
	// one-buffer-per-relation policy — the paper's benchmark metric.
	InputPages  int64
	OutputPages int64
}

// Exec parses and executes one or more TQuel statements, returning the
// result of the last one.
func (db *DB) Exec(src string) (*Result, error) {
	res, err := db.inner.Exec(src)
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

// Load bulk-inserts rows into a relation (the programmatic `copy from`).
// Each row holds Go values for the user attributes — int/int64, float64,
// string, or time.Time — or for the full stored schema including the
// implicit time attributes.
func (db *DB) Load(relation string, rows [][]any) (int, error) {
	conv := make([][]tuple.Value, len(rows))
	for i, row := range rows {
		conv[i] = make([]tuple.Value, len(row))
		for j, cell := range row {
			v, err := toInternal(cell)
			if err != nil {
				return 0, fmt.Errorf("tdbms: row %d column %d: %w", i, j, err)
			}
			conv[i][j] = v
		}
	}
	return db.inner.Load(relation, conv)
}

// Forever is the sentinel passed to Load for open-ended time attributes.
var Forever = temporal.Forever.Unix()

func toInternal(cell any) (tuple.Value, error) {
	switch c := cell.(type) {
	case int:
		return tuple.IntValue(int64(c)), nil
	case int32:
		return tuple.IntValue(int64(c)), nil
	case int64:
		return tuple.IntValue(c), nil
	case float64:
		return tuple.FloatValue(c), nil
	case string:
		return tuple.StrValue(c), nil
	case time.Time:
		return tuple.TemporalValue(int64(temporal.FromUnix(c.UTC()))), nil
	}
	return tuple.Value{}, fmt.Errorf("unsupported value type %T", cell)
}

// Now reports the database's logical clock.
func (db *DB) Now() time.Time { return db.inner.Clock().Now().Unix() }

// SetNow moves the logical clock, which stamps subsequent updates and
// resolves "now" in queries.
func (db *DB) SetNow(t time.Time) { db.inner.Clock().Set(temporal.FromUnix(t.UTC())) }

// AdvanceClock moves the logical clock forward.
func (db *DB) AdvanceClock(d time.Duration) { db.inner.Clock().Advance(int64(d / time.Second)) }

// RelationPages reports a relation's size in pages (the Figure 5 metric).
func (db *DB) RelationPages(name string) (int, error) { return db.inner.NumPages(name) }

// EnableTwoLevelStore converts an existing versioned relation to the
// two-level store of Section 6.
func (db *DB) EnableTwoLevelStore(name string, clustered bool) error {
	return db.inner.EnableTwoLevel(name, clustered)
}

// IOStats is the cumulative page I/O over all relations.
type IOStats struct {
	Reads, Writes, Hits int64
}

// Stats returns cumulative I/O counters since the last ResetStats.
func (db *DB) Stats() IOStats {
	s := db.inner.Stats()
	return IOStats{Reads: s.Reads, Writes: s.Writes, Hits: s.Hits}
}

// ResetStats zeroes the I/O counters.
func (db *DB) ResetStats() { db.inner.ResetStats() }

// InvalidateBuffers empties every buffer frame so the next query runs cold,
// as each of the paper's measurements did.
func (db *DB) InvalidateBuffers() error { return db.inner.InvalidateBuffers() }

// Relations lists the database's relations.
func (db *DB) Relations() []string { return db.inner.Catalog().List() }

// Explain describes how a retrieve statement would execute — the access
// path chosen per range variable and the join strategy — without running
// it.
func (db *DB) Explain(query string) (string, error) { return db.inner.Explain(query) }
