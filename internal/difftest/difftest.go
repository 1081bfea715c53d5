// Package difftest is the engine's differential oracle. It executes the
// twelve Figure 4 benchmark queries across the full configuration matrix —
// four database types × access methods (the paper's hash/isam pair, B-tree,
// heap) × buffer policies (the single-frame measurement policy and a
// 32-frame pool with readahead) × execution paths (the database's default
// session and explicit concurrent sessions) × bench worker counts — and
// requires byte-identical result tuples from every cell. The same harness
// drives the fault matrix: deterministic faultfs schedules sabotage reads,
// writes, allocations, and syncs mid-statement, and the oracle requires a
// wrapped error (never a panic), an intact database under CheckIntegrity,
// and byte-identical answers before close and after reopen.
//
// The package is test infrastructure. Importing it (or faultfs) from
// production code is forbidden by tdbvet's layering check; the harness lives
// in a non-test file only so its helpers are documented and vetted.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
	"tdbms/internal/tuple"
)

// Execer is the common query surface of core.Database and core.Conn.
type Execer interface {
	Exec(src string) (*core.Result, error)
}

// Methods is the access-method axis of the matrix. "paper" keeps Figure 3's
// organization (H hashed, I under ISAM); the others re-organize both
// relations, so updates and queries run against the method under test.
var Methods = []string{"paper", "btree", "heap"}

// Canon renders result rows in a canonical, order-independent form: each
// row's values printed and joined with "|", rows sorted. Two executions
// returning the same multiset of tuples canonicalize to identical strings
// regardless of scan order.
func Canon(rows [][]tuple.Value) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		lines[i] = strings.Join(cells, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// JoinQueries are the benchmark queries that join both relations — the
// quadratic-cost cells of an unindexed (heap) configuration.
var JoinQueries = map[string]bool{"Q09": true, "Q10": true, "Q11": true, "Q12": true}

// Snapshot runs every applicable benchmark query for type t on x and
// returns the canonical results keyed by query ID.
func Snapshot(x Execer, t bench.DBType) (map[string]string, error) {
	return SnapshotFiltered(x, t, nil)
}

// SnapshotFiltered is Snapshot restricted to queries for which skip returns
// false (nil skips nothing).
func SnapshotFiltered(x Execer, t bench.DBType, skip func(id string) bool) (map[string]string, error) {
	out := make(map[string]string)
	for _, q := range bench.Queries(t) {
		if q.Text == "" || (skip != nil && skip(q.ID)) {
			continue
		}
		res, err := x.Exec(q.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		out[q.ID] = Canon(res.Rows)
	}
	return out, nil
}

// SnapshotRetry is Snapshot, retrying each query while it fails with an
// injected fault — the schedules are one-shot, so a bounded number of
// retries must drain them. It returns the snapshot plus how many injected
// errors were absorbed; any other error is fatal.
func SnapshotRetry(x Execer, t bench.DBType, maxFaults int) (map[string]string, int, error) {
	out := make(map[string]string)
	absorbed := 0
	for _, q := range bench.Queries(t) {
		if q.Text == "" {
			continue
		}
		for {
			res, err := x.Exec(q.Text)
			if err == nil {
				out[q.ID] = Canon(res.Rows)
				break
			}
			if !faultfs.IsInjected(err) {
				return nil, absorbed, fmt.Errorf("%s: %w", q.ID, err)
			}
			absorbed++
			if absorbed > maxFaults {
				return nil, absorbed, fmt.Errorf("%s: more injected faults than scheduled: %w", q.ID, err)
			}
		}
	}
	return out, absorbed, nil
}

// BuildMethod builds one benchmark database with the given core options,
// re-organizes both relations to the access method, then applies uc uniform
// update rounds — so version-chain maintenance itself runs against the
// method under test.
func BuildMethod(t bench.DBType, method string, uc int, opts core.Options) (*bench.DB, error) {
	b, err := bench.BuildOpts(t, 100, opts)
	if err != nil {
		return nil, err
	}
	switch method {
	case "paper":
	case "btree":
		for _, rel := range []string{b.H, b.I} {
			if _, err := b.Inner.Exec(fmt.Sprintf("modify %s to btree on id", rel)); err != nil {
				return nil, err
			}
		}
	case "heap":
		for _, rel := range []string{b.H, b.I} {
			if _, err := b.Inner.Exec(fmt.Sprintf("modify %s to heap", rel)); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("difftest: unknown method %q", method)
	}
	for k := 0; k < uc; k++ {
		if err := b.Update(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// SessionFor opens a named session on b's engine with the benchmark range
// variables bound; frames > 0 applies a pooled buffer policy to it.
func SessionFor(b *bench.DB, name string, frames, ahead int) (*core.Conn, error) {
	c := b.Inner.NewSession(name)
	if frames > 0 {
		c.SetBufferPolicy(frames, ahead)
	}
	ranges := fmt.Sprintf("range of h is %s\nrange of i is %s", b.H, b.I)
	if _, err := c.Exec(ranges); err != nil {
		return nil, err
	}
	return c, nil
}

// Reopen opens the disk-backed benchmark database at dir, optionally
// splicing a fault schedule under every file, and rebinds the benchmark
// range variables on the default session.
func Reopen(dir string, t bench.DBType, sched *faultfs.Schedule) (*core.Database, error) {
	return ReopenWAL(dir, t, sched, false)
}

// ReopenWAL is Reopen with write-ahead logging enabled: recovery replays
// the log before the relations reattach, and the schedule — when given —
// also wraps the log file itself, so faults can tear its tail or sabotage
// the replay.
func ReopenWAL(dir string, t bench.DBType, sched *faultfs.Schedule, wal bool) (*core.Database, error) {
	opts := core.Options{Dir: dir, WAL: wal}
	if sched != nil {
		opts.WrapFile = sched.Wrap
		opts.WrapLog = sched.WrapLog
	}
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	ranges := fmt.Sprintf("range of h is %s_h\nrange of i is %s_i", t, t)
	if _, err := db.Exec(ranges); err != nil {
		_ = db.Close() // already failing; the range error wins
		return nil, err
	}
	return db, nil
}

// CurrentSeqs maps id to seq over the current versions of the relation
// bound to variable v, using the type's currency idiom.
func CurrentSeqs(x Execer, t bench.DBType, v string) (map[int64]int64, error) {
	cur := ""
	switch t {
	case bench.Static:
	case bench.Rollback:
		cur = ` as of "now"`
	default:
		cur = ` when ` + v + ` overlap "now"`
	}
	res, err := x.Exec(fmt.Sprintf(`retrieve (%s.id, %s.seq)%s`, v, v, cur))
	if err != nil {
		return nil, err
	}
	m := make(map[int64]int64, len(res.Rows))
	for _, row := range res.Rows {
		m[row[0].I] = row[1].I
	}
	return m, nil
}
