package difftest

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/buffer"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
	"tdbms/internal/tuple"
	"tdbms/internal/wal"
)

// The no-steal / no-force invariants of a WAL database: statements park
// the pages they write and commits only append to the log, so the data
// files change at checkpoints (Checkpoint, DDL, Close) and nowhere else,
// and a crash recovers exactly what the process held at its last commit.

// dataFiles reads every relation data file under dir.
func dataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for name, data := range dirState(t, dir) {
		if filepath.Ext(name) == ".tdb" {
			files[name] = data
		}
	}
	return files
}

// sameFiles asserts the data files are byte-identical to want.
func sameFiles(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d data files, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Fatalf("%s: %s changed (%d bytes, was %d)", label, name, len(got[name]), len(w))
		}
	}
}

// openAcct opens a WAL database in dir, with the given buffer frames per
// relation, holding relation acct: 64 accounts hashed on id at fillfactor
// 50, so the statements below find room on their bucket pages and never
// extend the file.
func openAcct(t *testing.T, dir string, frames int) *core.Database {
	t.Helper()
	db, err := core.Open(core.Options{Dir: dir, WAL: true, BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "create persistent interval acct (id = i4, bal = i4, seq = i4)")
	rows := make([][]tuple.Value, 64)
	for i := range rows {
		rows[i] = []tuple.Value{tuple.IntValue(int64(i + 1)), tuple.IntValue(100), tuple.IntValue(0)}
	}
	if _, err := db.Load("acct", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "modify acct to hash on id where fillfactor = 50\nrange of a is acct")
	return db
}

// acctSnap is the observable state of acct: every stored version and the
// current one of each account.
func acctSnap(t *testing.T, x Execer) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{`retrieve (a.id, a.bal, a.seq)`, `retrieve (a.id, a.seq) when a overlap "now"`} {
		res, err := x.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b.WriteString(Canon(res.Rows))
		b.WriteString("\n--\n")
	}
	return b.String()
}

// recoverAcct opens a restored crash image, checks its integrity, and
// returns the recovered state of acct.
func recoverAcct(t *testing.T, label, dir string) string {
	t.Helper()
	db, err := core.Open(core.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("%s: close: %v", label, err)
		}
	}()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity: %v", label, err)
	}
	mustExec(t, db, "range of a is acct")
	return acctSnap(t, db)
}

// TestWALCheckpointWritesDataFiles runs committed statements between every
// kind of checkpoint and requires the data files to stay byte-identical
// across the statements and to change at each checkpoint. A crash image
// taken after a checkpoint and three more statements recovers the
// checkpoint state from an empty log and the final state from the full
// one.
func TestWALCheckpointWritesDataFiles(t *testing.T) {
	dir := t.TempDir()
	db := openAcct(t, dir, 1)
	stmts := func(from, to int, want map[string][]byte) {
		t.Helper()
		for k := from; k <= to; k++ {
			mustExec(t, db, fmt.Sprintf(`replace a (seq = a.seq + 1, bal = a.bal + %d) where a.id = %d`, k, k))
			sameFiles(t, fmt.Sprintf("after statement %d", k), dataFiles(t, dir), want)
		}
	}
	changed := func(label string, before map[string][]byte) map[string][]byte {
		t.Helper()
		after := dataFiles(t, dir)
		if bytes.Equal(after["acct.tdb"], before["acct.tdb"]) {
			t.Fatalf("%s left acct.tdb as it was: committed pages were not written back", label)
		}
		return after
	}

	ddl := dataFiles(t, dir)
	stmts(1, 3, ddl)
	ckpt := acctSnap(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fuzzy := changed("Checkpoint", ddl)
	stmts(4, 6, fuzzy)
	final := acctSnap(t, db)

	// Crash here: the log past the checkpoint holds statements 4-6.
	img := dirState(t, dir)
	if got := recoverAcct(t, "empty log", restoreState(t, img, 0)); got != ckpt {
		t.Fatalf("empty log after a checkpoint recovered\n%s\nwant the checkpoint state\n%s", got, ckpt)
	}
	if got := recoverAcct(t, "full log", restoreState(t, img, -1)); got != final {
		t.Fatalf("full log recovered\n%s\nwant the final state\n%s", got, final)
	}

	mustExec(t, db, "create other (id = i4)")
	afterDDL := changed("DDL", fuzzy)
	stmts(7, 9, afterDDL)
	last := acctSnap(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	changed("Close", afterDDL)
	if got := recoverAcct(t, "after close", dir); got != last {
		t.Fatalf("reopen after Close:\n%s\nwant\n%s", got, last)
	}
}

// TestWALDirtyFrameLoggedOnce commits two statements on different pages
// of one relation under a four-frame pool, so the first statement's page
// is still resident and dirty when the second commits. The second commit's
// append holds its own page's image and its end record, and no image of
// the first page: a still-dirty frame is logged again only once it changes.
func TestWALDirtyFrameLoggedOnce(t *testing.T) {
	dir := t.TempDir()
	db := openAcct(t, dir, 4)
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	logged := func() []*wal.Record {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		var recs []*wal.Record
		scanLog(t, data, func(r *wal.Record) { recs = append(recs, r) })
		return recs
	}
	before, err := db.RelationStats("acct")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `replace a (seq = a.seq + 1) where a.id = 1`)
	first := logged()
	mustExec(t, db, `replace a (seq = a.seq + 1) where a.id = 2`)
	second := logged()[len(first):]
	after, err := db.RelationStats("acct")
	if err != nil {
		t.Fatal(err)
	}
	if after.Writes != before.Writes {
		t.Fatalf("the statements evicted %d dirty frames; the test needs the first page resident and dirty", after.Writes-before.Writes)
	}
	if len(first) != 2 || first[0].Image == nil || first[0].Rel != "acct" || first[1].Image != nil {
		t.Fatalf("statement 1 logged %d records, want page A's image and the end record", len(first))
	}
	pageA := first[0].Page
	if len(second) != 2 || second[0].Image == nil || second[0].Rel != "acct" || second[0].Page == pageA || second[1].Image != nil {
		for _, r := range second {
			t.Logf("statement 2 record: type %d rel %q page %d", r.Type, r.Rel, r.Page)
		}
		t.Fatalf("statement 2 logged %d records, want page B's image and the end record, and no image of page A (%d)", len(second), pageA)
	}
}

// TestWALFailedStatement fails a statement mid-way — after its evictions
// parked pages — with a read fault on the relation it writes. The failed
// statement is reverted whole, so a crash at once, a crash after a
// checkpoint, and a crash after one more committed statement on the
// relation all recover the state before it (with the committed statement,
// in the last case). The checkpoint moves no I/O counter.
func TestWALFailedStatement(t *testing.T) {
	dir := t.TempDir()
	b, err := bench.BuildOpts(bench.Temporal, 100, core.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := b.Inner.Close(); err != nil {
		t.Fatalf("close after build: %v", err)
	}
	clean := dirState(t, dir)
	failing := fmt.Sprintf(`replace h (seq = h.seq + 1) where h.id <= %d`, walTouched)

	// A fault-free twin measures the statement: the buffer's read
	// operations before and during it are the faultfs read ordinals, and it
	// must evict dirty pages before its last read.
	twin, err := ReopenWAL(restoreState(t, clean, -1), bench.Temporal, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	ref0 := mustSnap(t, twin)
	mustSeqs(t, twin, "h")
	before, err := twin.RelationStats("temporal_h")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, twin, failing)
	after, err := twin.RelationStats("temporal_h")
	if err != nil {
		t.Fatal(err)
	}
	if after.Writes == before.Writes {
		t.Fatalf("the statement evicted nothing; the test needs mid-statement evictions")
	}
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf("temporal_h:read@%d", after.ReadOps)

	run := restoreState(t, clean, -1)
	db, err := ReopenWAL(run, bench.Temporal, faultfs.MustParse(spec), true)
	if err != nil {
		t.Fatal(err)
	}
	sameSnap(t, "before the statement", mustSnap(t, db), ref0)
	baseH := mustSeqs(t, db, "h")
	pre, err := db.RelationStats("temporal_h")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(failing); !faultfs.IsInjected(err) {
		t.Fatalf("%s under %s: %v, want the injected read fault", failing, spec, err)
	}
	post, err := db.RelationStats("temporal_h")
	if err != nil {
		t.Fatal(err)
	}
	if post.Writes == pre.Writes {
		t.Fatalf("the failed statement evicted nothing before its fault")
	}

	// Crash at once: the parked pages never reached a data file or the log.
	crashed := restoreState(t, dirState(t, run), -1)
	recovered, err := ReopenWAL(crashed, bench.Temporal, nil, true)
	if err != nil {
		t.Fatalf("recovery after the failed statement: %v", err)
	}
	if err := recovered.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after the failed statement: %v", err)
	}
	if class := bumpedClass(t, "failed statement", baseH, mustSeqs(t, recovered, "h")); class != "none" {
		t.Fatalf("crash after a failed statement recovered %s of it, want none", class)
	}
	sameSnap(t, "crash after the failed statement", mustSnap(t, recovered), ref0)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}

	// The process holds the state before the statement. A fuzzy checkpoint
	// now writes the dirty frames through and back without flushing one:
	// no relation's counters and no session account move, and a crash
	// right after it recovers that state.
	relStats := func() map[string]buffer.Stats {
		t.Helper()
		m := map[string]buffer.Stats{}
		for _, name := range db.Catalog().List() {
			s, err := db.RelationStats(name)
			if err != nil {
				t.Fatal(err)
			}
			m[name] = s
		}
		return m
	}
	relsBefore, acctBefore := relStats(), db.DefaultSession().Stats()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the failed statement: %v", err)
	}
	if got := relStats(); !maps.Equal(got, relsBefore) {
		t.Fatalf("the checkpoint moved relation counters: %v, was %v", got, relsBefore)
	}
	if got := db.DefaultSession().Stats(); got != acctBefore {
		t.Fatalf("the checkpoint moved the session account: %+v, was %+v", got, acctBefore)
	}
	sameSnap(t, "after the failed statement", mustSnap(t, db), ref0)
	recovered, err = ReopenWAL(restoreState(t, dirState(t, run), -1), bench.Temporal, nil, true)
	if err != nil {
		t.Fatalf("recovery after the checkpoint: %v", err)
	}
	sameSnap(t, "crash after the checkpoint", mustSnap(t, recovered), ref0)
	if class := bumpedClass(t, "checkpoint", baseH, mustSeqs(t, recovered, "h")); class != "none" {
		t.Fatalf("crash after a checkpoint recovered %s of the failed statement, want none", class)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}

	// One more committed statement on the relation logs the frames the
	// checkpoint left dirty with its own pages: the failed statement's
	// chains keep their base, and only its own chain moves.
	next := walTouched + 1
	mustExec(t, db, fmt.Sprintf(`replace h (seq = h.seq + 1) where h.id = %d`, next))
	held := mustSnap(t, db)
	heldSeqs := mustSeqs(t, db, "h")
	for id, want := range baseH {
		if id == int64(next) {
			want++
		}
		if heldSeqs[id] != want {
			t.Fatalf("after the next commit id %d has seq %d, want %d", id, heldSeqs[id], want)
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after the next commit: %v", err)
	}
	recovered, err = ReopenWAL(restoreState(t, dirState(t, run), -1), bench.Temporal, nil, true)
	if err != nil {
		t.Fatalf("recovery after the next commit: %v", err)
	}
	defer func() {
		if err := recovered.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if err := recovered.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after the next commit: %v", err)
	}
	sameSnap(t, "crash after the next commit", mustSnap(t, recovered), held)
	got := mustSeqs(t, recovered, "h")
	for id, want := range heldSeqs {
		if got[id] != want {
			t.Fatalf("id %d recovered seq %d, the process held %d", id, got[id], want)
		}
	}
}
