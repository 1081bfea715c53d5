package difftest

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
	"tdbms/internal/page"
	"tdbms/internal/storage"
	"tdbms/internal/tuple"
)

// A writing statement is all or nothing. When it fails part-way — on a
// value it cannot compute, or on a read or an allocation the disk refuses
// — the pages it wrote are put back and the pages it allocated are given
// back before its latches are released. The tests below make a replace
// fail at each of its candidates and, on disk, at each of its I/Os, and
// require the state from before it every time: the twelve Figure 4
// answers, every current seq, every relation's size in pages, and
// CheckIntegrity. On a WAL database a later commit and a crash must not
// bring the failed work back.

// divAt replaces chains 1..walTouched of variable v and divides by zero on
// chain k. As k runs over 1..walTouched, the failure lands on every
// position of the statement's candidate order.
func divAt(v string, k int) string {
	return fmt.Sprintf(`replace %[1]s (seq = %[1]s.seq + 1000 / (%[1]s.id - %[2]d)) where %[1]s.id <= %[3]d`, v, k, walTouched)
}

// bumpAll is the statement divAt breaks, without the zero divisor.
func bumpAll(v string) string {
	return fmt.Sprintf(`replace %[1]s (seq = %[1]s.seq + 1) where %[1]s.id <= %[2]d`, v, walTouched)
}

// dbState is what a failed statement must leave unchanged.
type dbState struct {
	snap  map[string]string // the Figure 4 answers, and any extra queries
	seqs  map[string]map[int64]int64
	pages map[string]int
}

// stateOf reads db's state and checks its integrity. skip leaves Figure 4
// queries out (the heap cells' quadratic joins); extra adds queries.
func stateOf(t *testing.T, db *core.Database, typ bench.DBType, skip func(string) bool, extra ...string) dbState {
	t.Helper()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	snap, err := SnapshotFiltered(db, typ, skip)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, q := range extra {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		snap[q] = Canon(res.Rows)
	}
	s := dbState{snap: snap, seqs: map[string]map[int64]int64{}, pages: map[string]int{}}
	for _, v := range []string{"h", "i"} {
		if s.seqs[v], err = CurrentSeqs(db, typ, v); err != nil {
			t.Fatalf("current seqs of %s: %v", v, err)
		}
	}
	for _, name := range db.Catalog().List() {
		if s.pages[name], err = db.NumPages(name); err != nil {
			t.Fatalf("pages of %s: %v", name, err)
		}
	}
	return s
}

// sameState asserts got is want.
func sameState(t *testing.T, label string, got, want dbState) {
	t.Helper()
	for v, w := range want.seqs {
		if g := got.seqs[v]; !maps.Equal(g, w) {
			for id, seq := range w {
				if g[id] != seq {
					t.Fatalf("%s: %s id %d has seq %d, was %d", label, v, id, g[id], seq)
				}
			}
			t.Fatalf("%s: %s has %d current versions, was %d", label, v, len(g), len(w))
		}
	}
	if !maps.Equal(got.pages, want.pages) {
		t.Fatalf("%s: relation sizes %v, were %v", label, got.pages, want.pages)
	}
	sameSnap(t, label, got.snap, want.snap)
}

// skipHeapJoins leaves a heap cell's quadratic joins out of its states.
func skipHeapJoins(method string) func(string) bool {
	if method != "heap" {
		return nil
	}
	return func(id string) bool { return JoinQueries[id] }
}

// mustFail runs stmt on db and requires it to fail with an error that
// contains want.
func mustFail(t *testing.T, db *core.Database, stmt, want string) {
	t.Helper()
	_, err := db.Exec(stmt)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: %v, want an error containing %q", stmt, err, want)
	}
}

// allOrNothingCell is one in-memory cell: a database, the statements that
// fail on it, and a twin built the same way that never sees them.
type allOrNothingCell struct {
	b, twin *bench.DB
	skip    func(string) bool
	extra   []string
	vars    []string
	fail    func(v string, k int) string // fails on chain k
	succeed func(v string) string
}

// run fails every statement of the cell, requiring the state before it
// each time, then runs the succeeding statements on both databases: the
// one that saw the failures must end where its twin does.
func (c allOrNothingCell) run(t *testing.T) {
	t.Helper()
	typ := c.b.Type
	ref := stateOf(t, c.b.Inner, typ, c.skip, c.extra...)
	for _, v := range c.vars {
		for k := 1; k <= walTouched; k++ {
			stmt := c.fail(v, k)
			mustFail(t, c.b.Inner, stmt, "division by zero")
			sameState(t, stmt, stateOf(t, c.b.Inner, typ, c.skip, c.extra...), ref)
		}
	}
	for _, v := range c.vars {
		mustExec(t, c.b.Inner, c.succeed(v))
		mustExec(t, c.twin.Inner, c.succeed(v))
	}
	sameState(t, "after the statements that succeed", stateOf(t, c.b.Inner, typ, c.skip, c.extra...),
		stateOf(t, c.twin.Inner, typ, c.skip, c.extra...))
}

// buildPair builds a cell's database and its twin in memory.
func buildPair(t *testing.T, typ bench.DBType, method string) (b, twin *bench.DB) {
	t.Helper()
	var err error
	if b, err = BuildMethod(typ, method, 1, core.Options{}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if twin, err = BuildMethod(typ, method, 1, core.Options{}); err != nil {
		t.Fatalf("build twin: %v", err)
	}
	return b, twin
}

// TestStatementAllOrNothing fails a replace at each of its candidates on
// every database type × access method in memory ("paper" is a hashed h
// and an ISAM i), on a relation with a hashed two-level secondary index,
// and on a two-level store.
func TestStatementAllOrNothing(t *testing.T) {
	for _, typ := range bench.Types {
		for _, method := range Methods {
			typ, method := typ, method
			t.Run(string(typ)+"/"+method, func(t *testing.T) {
				t.Parallel()
				b, twin := buildPair(t, typ, method)
				allOrNothingCell{b: b, twin: twin, skip: skipHeapJoins(method), vars: []string{"h", "i"},
					fail: divAt, succeed: bumpAll}.run(t)
			})
		}
	}

	// The replace moves every amount to a key the index has not seen, so
	// each candidate allocates a bucket and grows the hash directory.
	t.Run("secondary-index", func(t *testing.T) {
		t.Parallel()
		b, twin := buildPair(t, bench.Temporal, "paper")
		res, err := b.Inner.Exec(fmt.Sprintf(`retrieve (h.amount) where h.id <= %d`, walTouched))
		if err != nil {
			t.Fatal(err)
		}
		var extra []string
		for _, row := range res.Rows {
			for _, a := range []int64{row[0].I, row[0].I + 1} {
				extra = append(extra, fmt.Sprintf(`retrieve (h.id, h.seq) where h.amount = %d`, a))
			}
		}
		for _, db := range []*core.Database{b.Inner, twin.Inner} {
			mustExec(t, db, `index on temporal_h is h_amount (amount) with structure = hash with levels = 2`)
		}
		allOrNothingCell{b: b, twin: twin, extra: extra, vars: []string{"h"},
			fail: func(v string, k int) string {
				return fmt.Sprintf(`replace %[1]s (amount = %[1]s.amount + 1, seq = %[1]s.seq + 1000 / (%[1]s.id - %[2]d)) where %[1]s.id <= %[3]d`, v, k, walTouched)
			},
			succeed: func(v string) string {
				return fmt.Sprintf(`replace %[1]s (amount = %[1]s.amount + 1) where %[1]s.id <= %[2]d`, v, walTouched)
			}}.run(t)
	})

	// The simple history layout keeps each key's version chain outside
	// its pages; Q01 and Q02 walk it.
	t.Run("two-level", func(t *testing.T) {
		t.Parallel()
		b, twin := buildPair(t, bench.Temporal, "paper")
		for _, x := range []*bench.DB{b, twin} {
			if err := x.Inner.EnableTwoLevel(x.H, false); err != nil {
				t.Fatal(err)
			}
		}
		allOrNothingCell{b: b, twin: twin, vars: []string{"h", "i"}, fail: divAt, succeed: bumpAll}.run(t)
	})
}

// TestStatementAllOrNothingRootSplit fails a replace on a B-tree whose
// root is a single leaf, at each of its rows. The versions it inserts
// before the last row split the root, so the revert must give back the
// pages and move the root back with them.
func TestStatementAllOrNothingRootSplit(t *testing.T) {
	const rows = 6
	open := func() *core.Database {
		db := core.MustOpen(core.Options{})
		mustExec(t, db, "create persistent interval r (id = i4, v = i4, pad = c100)")
		mustExec(t, db, "modify r to btree on id\nrange of r is r")
		for id := 1; id <= rows; id++ {
			mustExec(t, db, fmt.Sprintf(`append to r (id = %d, v = 10, pad = "x")`, id))
		}
		return db
	}
	pages := func(db *core.Database) int {
		t.Helper()
		n, err := db.NumPages("r")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	state := func(db *core.Database) string {
		t.Helper()
		var b strings.Builder
		for _, q := range []string{`retrieve (r.id, r.v)`, `retrieve (r.id, r.v) when r overlap "now"`, `retrieve (r.v) where r.id = 3`} {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			fmt.Fprintf(&b, "%s\n%s\n", q, Canon(res.Rows))
		}
		if err := db.CheckIntegrity(); err != nil {
			t.Fatalf("integrity: %v", err)
		}
		return b.String()
	}

	twin := open()
	if n := pages(twin); n != 1 {
		t.Fatalf("the tree starts with %d pages, want a lone root leaf", n)
	}
	twin.Clock().Advance(60)
	mustExec(t, twin, fmt.Sprintf(`replace r (v = r.v + 1) where r.id < %d`, rows))
	if n := pages(twin); n < 3 {
		t.Fatalf("the rows before the last left %d pages; the test needs them to split the root", n)
	}

	db := open()
	ref, n0 := state(db), pages(db)
	db.Clock().Advance(60)
	for k := 1; k <= rows; k++ {
		stmt := fmt.Sprintf(`replace r (v = r.v + 1000 / (r.id - %d))`, k)
		mustFail(t, db, stmt, "division by zero")
		if n := pages(db); n != n0 {
			t.Fatalf("%s: the tree has %d pages, had %d", stmt, n, n0)
		}
		if got := state(db); got != ref {
			t.Fatalf("%s: state changed\n got: %s\nwant: %s", stmt, got, ref)
		}
	}
	// The tree grows again from the root the revert restored.
	mustExec(t, db, `replace r (v = r.v + 1)`)
	twin2 := open()
	twin2.Clock().Advance(60)
	mustExec(t, twin2, `replace r (v = r.v + 1)`)
	if got, want := state(db), state(twin2); got != want {
		t.Fatalf("after a replace that succeeds\n got: %s\nwant: %s", got, want)
	}
}

// TestFailedReplaceKeepsEarlierRows is the in-memory reproducer: a replace
// that divides by zero on the fourth of five rows leaves the first three
// as they were, on a static and on a persistent interval relation.
func TestFailedReplaceKeepsEarlierRows(t *testing.T) {
	for _, decl := range []string{"create", "create persistent interval"} {
		db := core.MustOpen(core.Options{})
		mustExec(t, db, decl+" e (id = i4, v = i4)\nrange of e is e")
		for id := 1; id <= 5; id++ {
			v := 10
			if id == 4 {
				v = 0
			}
			mustExec(t, db, fmt.Sprintf("append to e (id = %d, v = %d)", id, v))
		}
		db.Clock().Advance(60)
		mustFail(t, db, `replace e (v = 1000 / e.v)`, "division by zero")
		res, err := db.Exec(`retrieve (e.id, e.v)`)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range res.Rows {
			res.Rows[i] = row[:2] // an interval relation's rows carry their validity
		}
		want := "1|10\n2|10\n3|10\n4|0\n5|10"
		if got := Canon(res.Rows); got != want {
			t.Errorf("%s: after the failed replace\n%s\nwant\n%s", decl, got, want)
		}
	}
}

// TestWALFailedReplaceStaysLost is the WAL reproducer: a replace on a
// hashed relation fails at row 6, the next statement on the relation
// commits, and a crash then recovers every row but the committed one as
// it was before the failed replace.
func TestWALFailedReplaceStaysLost(t *testing.T) {
	dir := t.TempDir()
	db, err := core.Open(core.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "create persistent interval a (id = i4, bal = i4)")
	rows := make([][]tuple.Value, 8)
	for i := range rows {
		bal := int64(10)
		if i+1 == 6 {
			bal = 0
		}
		rows[i] = []tuple.Value{tuple.IntValue(int64(i + 1)), tuple.IntValue(bal)}
	}
	if _, err := db.Load("a", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "modify a to hash on id\nrange of a is a")
	db.Clock().Advance(60)
	mustFail(t, db, `replace a (bal = 1000 / a.bal)`, "division by zero")
	mustExec(t, db, `replace a (bal = 7) where a.id = 8`)

	// Crash: abandon db and recover a copy of its files.
	recovered, err := core.Open(core.Options{Dir: restoreState(t, dirState(t, dir), -1), WAL: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer func() {
		if err := recovered.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if err := recovered.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	mustExec(t, recovered, "range of a is a")
	res, err := recovered.Exec(`retrieve (a.id, a.bal) when a overlap "now"`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		res.Rows[i] = row[:2] // their validity follows
	}
	want := "1|10\n2|10\n3|10\n4|10\n5|10\n6|0\n7|10\n8|7"
	if got := Canon(res.Rows); got != want {
		t.Errorf("recovered\n%s\nwant\n%s", got, want)
	}
}

// TestStatementAllOrNothingOnDisk fails a replace of the temporal database
// on disk, without and with the log, at each of its candidates, at each of
// its reads from the last of its candidate scan on, and at each of its
// allocations. Every I/O fault is one faultfs rule armed just before the
// statement (relay), counted from there; the buffers are emptied first,
// so the statement reads the same pages in the same order each time, and
// a fault-free twin counts them. On the WAL database each failure is
// followed by a commit on the same relation and a crash, and recovery
// must land on the state before the failed statement.
func TestStatementAllOrNothingOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("the disk matrix reopens and recovers once per fault")
	}
	for _, wal := range []bool{false, true} {
		for _, method := range Methods {
			wal, method := wal, method
			name := "disk/" + method
			if wal {
				name = "wal/" + method
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				diskAllOrNothing(t, method, wal)
			})
		}
	}
}

func diskAllOrNothing(t *testing.T, method string, wal bool) {
	typ := bench.Temporal
	skip := skipHeapJoins(method)
	build := t.TempDir()
	b, err := BuildMethod(typ, method, 1, core.Options{Dir: build, WAL: wal})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := b.Inner.Close(); err != nil {
		t.Fatalf("close after build: %v", err)
	}
	clean := dirState(t, build)
	twin, err := ReopenWAL(restoreState(t, clean, -1), typ, nil, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = twin.Close() }() // measured only
	var sched *faultfs.Schedule         // the rule armed for the statement in flight
	dir := restoreState(t, clean, -1)
	db, err := core.Open(core.Options{Dir: dir, WAL: wal, WrapFile: func(name string, f storage.File) storage.File {
		return relay{File: f, name: name, sched: &sched}
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, fmt.Sprintf("range of h is %[1]s_h\nrange of i is %[1]s_i", typ))
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ref := stateOf(t, db, typ, skip)

	// check requires the state before the failed statement, live and, on
	// the WAL database, after one more commit on its relation and a crash.
	check := func(label, v string) {
		t.Helper()
		sameState(t, label, stateOf(t, db, typ, skip), ref)
		if !wal {
			return
		}
		mustExec(t, db, fmt.Sprintf(`replace %[1]s (seq = %[1]s.seq + 1) where %[1]s.id = -1`, v))
		recovered, err := ReopenWAL(restoreState(t, dirState(t, dir), -1), typ, nil, true)
		if err != nil {
			t.Fatalf("%s: recovery: %v", label, err)
		}
		sameState(t, label+", recovered", stateOf(t, recovered, typ, skip), ref)
		if err := recovered.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", label, err)
		}
	}
	// armed runs stmt from cold buffers with the faultfs rule armed, its
	// count starting at the statement.
	armed := func(rule, stmt string) {
		t.Helper()
		if err := db.InvalidateBuffers(); err != nil {
			t.Fatal(err)
		}
		sched = faultfs.MustParse(rule)
		_, err := db.Exec(stmt)
		sched = nil
		if !faultfs.IsInjected(err) {
			t.Fatalf("%s under %s: %v, want the injected fault", stmt, rule, err)
		}
	}

	vars := []string{"h"}
	if method == "paper" {
		vars = append(vars, "i") // the ISAM relation
	}
	for _, v := range vars {
		rel := fmt.Sprintf("%s_%s", typ, v)
		for k := 1; k <= walTouched; k++ {
			stmt := divAt(v, k)
			mustFail(t, db, stmt, "division by zero")
			check(stmt, v)
		}

		// The twin counts the candidate scan's reads and the statement's
		// reads and allocations, each from cold buffers.
		cold := func() ioMark {
			t.Helper()
			if err := twin.InvalidateBuffers(); err != nil {
				t.Fatal(err)
			}
			s, err := twin.RelationStats(rel)
			if err != nil {
				t.Fatal(err)
			}
			n, err := twin.NumPages(rel)
			if err != nil {
				t.Fatal(err)
			}
			return ioMark{reads: s.ReadOps, pages: n}
		}
		c0 := cold()
		mustExec(t, twin, fmt.Sprintf(`retrieve (%[1]s.id) where %[1]s.id <= %[2]d`, v, walTouched))
		s0 := cold()
		mustExec(t, twin, bumpAll(v))
		s1 := cold()
		scan, reads, allocs := s0.reads-c0.reads, s1.reads-s0.reads, s1.pages-s0.pages
		if reads <= scan {
			t.Fatalf("%s: the statement read %d pages, its candidate scan %d", rel, reads, scan)
		}
		for k := scan; k <= reads; k++ {
			rule := fmt.Sprintf("%s:read@%d", rel, k)
			armed(rule, bumpAll(v))
			check(rule, v)
		}
		for k := 1; k <= allocs; k++ {
			rule := fmt.Sprintf("%s:alloc@%d:enospc", rel, k)
			armed(rule, bumpAll(v))
			check(rule, v)
		}
		t.Logf("%s: %d candidate-scan reads, %d reads, %d allocations", rel, scan, reads, allocs)
	}
}

// relay is a file whose faults come from the schedule *sched, when one is
// armed: a fresh schedule counts the file's operations from its arming.
type relay struct {
	storage.File
	name  string
	sched **faultfs.Schedule
}

func (r relay) file() storage.File {
	if s := *r.sched; s != nil {
		return s.Wrap(r.name, r.File)
	}
	return r.File
}

func (r relay) ReadPage(id page.ID, p *page.Page) error    { return r.file().ReadPage(id, p) }
func (r relay) ReadPages(id page.ID, ps []page.Page) error { return r.file().ReadPages(id, ps) }
func (r relay) WritePage(id page.ID, p *page.Page) error   { return r.file().WritePage(id, p) }
func (r relay) Allocate() (page.ID, error)                 { return r.file().Allocate() }

// ioMark is a relation's read count and size at one moment.
type ioMark struct {
	reads int64
	pages int
}

// TestRevertWriteFails fails a replace of each relation of a temporal disk
// database without the log at its second page write, then fails the first
// write of the revert that follows, which puts back the page the statement
// had already written (buffer.Buffered.End): the statement's error must be
// the injected fault and say the rollback is incomplete, and the database,
// closed and opened again, must pass CheckIntegrity.
func TestRevertWriteFails(t *testing.T) {
	typ := bench.Temporal
	for _, v := range []string{"h", "i"} {
		t.Run(v, func(t *testing.T) {
			dir := t.TempDir()
			b, err := BuildMethod(typ, "paper", 1, core.Options{Dir: dir})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := b.Inner.Close(); err != nil {
				t.Fatalf("close after build: %v", err)
			}
			var sched *faultfs.Schedule // armed for the failing statement only
			db, err := core.Open(core.Options{Dir: dir, WrapFile: func(name string, f storage.File) storage.File {
				return relay{File: f, name: name, sched: &sched}
			}})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, fmt.Sprintf("range of h is %[1]s_h\nrange of i is %[1]s_i", typ))
			if err := db.InvalidateBuffers(); err != nil {
				t.Fatal(err)
			}
			rel := fmt.Sprintf("%s_%s", typ, v)
			sched = faultfs.MustParse(fmt.Sprintf("%[1]s:write@2:fail;%[1]s:write@3:fail", rel))
			_, err = db.Exec(bumpAll(v))
			fired := sched.String()
			sched = nil
			t.Logf("%s under %s: %v", bumpAll(v), fired, err)
			if !faultfs.IsInjected(err) || !strings.Contains(err.Error(), "rollback incomplete") {
				t.Fatalf("%s: %v, want the injected fault and an incomplete rollback", bumpAll(v), err)
			}
			if err := db.Close(); err != nil {
				t.Logf("close after the incomplete rollback: %v", err)
			}
			reopened, err := Reopen(dir, typ, nil)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer func() { _ = reopened.Close() }() // only inspected
			if err := reopened.CheckIntegrity(); err != nil {
				t.Fatalf("integrity after reopen: %v", err)
			}
			// Without the log nothing puts back the page the revert could
			// not write: what the reopened relation shows of the chains
			// the statement touched is logged, not required.
			seqs, err := CurrentSeqs(reopened, typ, v)
			if err != nil {
				t.Fatal(err)
			}
			for id := int64(1); id <= walTouched; id++ {
				if _, ok := seqs[id]; !ok {
					t.Logf("%s: id %d has no current version after the reopen", rel, id)
				}
			}
		})
	}
}
