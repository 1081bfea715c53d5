package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
	"tdbms/internal/storage"
	"tdbms/internal/wal"
)

// The WAL crash matrix. A benchmark database is built with logging on,
// closed cleanly (emptying the log), reopened, and driven through a seeded
// two-statement schedule — then abandoned without Close, exactly the crash
// model: completed writes are visible, nothing else survives. The on-disk
// bytes at that instant are the crash image; every scenario below restores
// it into a fresh directory and recovers from a sabotaged variant of it.
//
// The oracle is threefold after every recovery: CheckIntegrity passes, each
// version chain's seq moved atomically per statement (all of a statement's
// chains at base+1 or all at base — never split), and the twelve-query
// snapshot is byte-identical to the matching no-fault reference state.

// walMatrixRow is one recovery outcome, serialized to WAL_MATRIX_OUT for
// the CI artifact.
type walMatrixRow struct {
	Scenario string `json:"scenario"`
	Cut      int64  `json:"cut,omitempty"`
	State    string `json:"state"` // which reference the recovery landed on
}

type walMatrix struct {
	mu   sync.Mutex
	rows []walMatrixRow
}

func (m *walMatrix) add(r walMatrixRow) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = append(m.rows, r)
}

// writeOut dumps the collected rows as JSON when WAL_MATRIX_OUT names a
// file — the CI crash-matrix step uploads it as a build artifact.
func (m *walMatrix) writeOut(t *testing.T) {
	t.Helper()
	path := os.Getenv("WAL_MATRIX_OUT")
	if path == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Rows []walMatrixRow `json:"rows"`
	}{m.rows}, "", "  ")
	if err != nil {
		t.Fatalf("marshal matrix: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	t.Logf("wrote %d matrix rows to %s", len(m.rows), path)
}

// dirState reads every regular file under dir into memory — the crash image
// of an abandoned process.
func dirState(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	state := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		state[e.Name()] = data
	}
	return state
}

// restoreState materializes a crash image into a fresh directory, with the
// log truncated to cut bytes (cut < 0 keeps the whole log).
func restoreState(t *testing.T, state map[string][]byte, cut int64) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range state {
		if name == "wal.log" && cut >= 0 && cut < int64(len(data)) {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
	}
	return dir
}

// walBoundaries decodes a saved log image and returns every record's start
// offset plus the valid tail.
func walBoundaries(t *testing.T, logBytes []byte) (bounds []int64, valid int64) {
	t.Helper()
	valid = scanLog(t, logBytes, func(r *wal.Record) { bounds = append(bounds, r.LSN) })
	return bounds, valid
}

// scanLog decodes a saved log image, calling fn for every well-formed
// record in order, and returns the valid tail.
func scanLog(t *testing.T, logBytes []byte, fn func(*wal.Record)) int64 {
	t.Helper()
	mem := storage.NewMemLog()
	if _, err := mem.WriteAt(logBytes, 0); err != nil {
		t.Fatalf("seed mem log: %v", err)
	}
	valid, err := wal.NewManager(mem).Scan(0, func(r *wal.Record) error {
		fn(r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan saved log: %v", err)
	}
	return valid
}

// bumpedClass classifies a recovered relation against its base seqs:
// "none" (the statement never committed) or "all" (it fully applied). A
// split within ids 1..walTouched, any movement outside them, or a changed
// chain count fails the test — that is precisely a torn statement.
func bumpedClass(t *testing.T, label string, base, got map[int64]int64) string {
	t.Helper()
	if len(got) != len(base) {
		t.Fatalf("%s: current-version count changed: %d, was %d", label, len(got), len(base))
	}
	bumped, kept := 0, 0
	for id, seq := range got {
		b, ok := base[id]
		if !ok {
			t.Fatalf("%s: id %d appeared out of nowhere (seq %d)", label, id, seq)
		}
		switch {
		case id > walTouched:
			if seq != b {
				t.Fatalf("%s: untouched id %d moved from %d to %d", label, id, b, seq)
			}
		case seq == b:
			kept++
		case seq == b+1:
			bumped++
		default:
			t.Fatalf("%s: id %d has torn seq %d (base %d)", label, id, seq, b)
		}
	}
	switch {
	case bumped == walTouched && kept == 0:
		return "all"
	case bumped == 0 && kept == walTouched:
		return "none"
	}
	t.Fatalf("%s: statement tore: %d chains bumped, %d kept", label, bumped, kept)
	return ""
}

// sameSnap asserts two snapshots are byte-identical query by query.
func sameSnap(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: snapshot has %d queries, want %d", label, len(got), len(want))
	}
	for id, g := range got {
		if w, ok := want[id]; !ok || g != w {
			t.Fatalf("%s: %s diverged after recovery", label, id)
		}
	}
}

// mustSnap is Snapshot on a fault-free database.
func mustSnap(t *testing.T, x Execer) map[string]string {
	t.Helper()
	snap, err := Snapshot(x, bench.Temporal)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// mustExec runs one statement on a fault-free database.
func mustExec(t *testing.T, x Execer, src string) {
	t.Helper()
	if _, err := x.Exec(src); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
}

// walCrashImage holds the seeded schedule's crash image and the reference
// states recovery may legally land on.
type walCrashImage struct {
	state  map[string][]byte
	ref0   map[string]string // before the schedule
	refH   map[string]string // after statement 1 (replace h)
	ref2   map[string]string // after statement 2 (replace i) — full recovery
	baseH  map[int64]int64
	baseI  map[int64]int64
	bounds []int64
	valid  int64
}

// buildWALCrashImage builds the WAL benchmark database, runs the seeded
// two-statement schedule — with a checkpoint between the statements when
// checkpoint is set — and captures the crash image plus references.
func buildWALCrashImage(t *testing.T, checkpoint bool) *walCrashImage {
	t.Helper()
	dir := t.TempDir()
	b, err := bench.BuildOpts(bench.Temporal, 100, core.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := b.Inner.Close(); err != nil {
		t.Fatalf("close after build: %v", err)
	}
	db, err := ReopenWAL(dir, bench.Temporal, nil, true)
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	img := &walCrashImage{}
	img.ref0 = mustSnap(t, db)
	img.baseH = mustSeqs(t, db, "h")
	img.baseI = mustSeqs(t, db, "i")
	db.Clock().Advance(3600)
	mustExec(t, db, fmt.Sprintf(`replace h (seq = h.seq + 1) where h.id <= %d`, walTouched))
	img.refH = mustSnap(t, db)
	if checkpoint {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	mustExec(t, db, fmt.Sprintf(`replace i (seq = i.seq + 1) where i.id <= %d`, walTouched))
	img.ref2 = mustSnap(t, db)
	// Crash: abandon db without Close. The files as they stand — data,
	// catalog, log — are the image every scenario recovers from.
	img.state = dirState(t, dir)
	img.bounds, img.valid = walBoundaries(t, img.state["wal.log"])
	if img.valid != int64(len(img.state["wal.log"])) {
		t.Fatalf("live log has a torn tail: valid %d of %d", img.valid, len(img.state["wal.log"]))
	}
	if len(img.bounds) < 6 {
		t.Fatalf("seeded schedule produced only %d records; the sweep needs more boundaries", len(img.bounds))
	}
	return img
}

// expectRef maps the recovered statement classes to the reference snapshot
// recovery must reproduce; a committed i without a committed h violates log
// order and fails.
func (img *walCrashImage) expectRef(t *testing.T, label, hClass, iClass string) map[string]string {
	t.Helper()
	switch {
	case hClass == "none" && iClass == "none":
		return img.ref0
	case hClass == "all" && iClass == "none":
		return img.refH
	case hClass == "all" && iClass == "all":
		return img.ref2
	}
	t.Fatalf("%s: statement 2 recovered without statement 1 (h=%s, i=%s)", label, hClass, iClass)
	return nil
}

// checkRecovered opens a restored directory fault-free and runs the full
// oracle; it returns the state label the recovery landed on.
func (img *walCrashImage) checkRecovered(t *testing.T, label, dir string) string {
	t.Helper()
	db, err := ReopenWAL(dir, bench.Temporal, nil, true)
	if err != nil {
		t.Fatalf("%s: recovery reopen: %v", label, err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("%s: close after recovery: %v", label, err)
		}
	}()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity after recovery: %v", label, err)
	}
	hClass := bumpedClass(t, label+"/h", img.baseH, mustSeqs(t, db, "h"))
	iClass := bumpedClass(t, label+"/i", img.baseI, mustSeqs(t, db, "i"))
	want := img.expectRef(t, label, hClass, iClass)
	sameSnap(t, label, mustSnap(t, db), want)
	return fmt.Sprintf("h=%s,i=%s", hClass, iClass)
}

// sweep recovers the image with its log cut at every record boundary and
// one byte into each frame, and at its full length. A cut to an empty log
// must land on floor — the state the data files hold — and the full log on
// both statements.
func (img *walCrashImage) sweep(t *testing.T, matrix *walMatrix, scenario, floor string) {
	t.Helper()
	rank := map[string]int{"h=none,i=none": 0, "h=all,i=none": 1, "h=all,i=all": 2}
	cuts := make([]int64, 0, 2*len(img.bounds)+1)
	for _, b := range img.bounds {
		cuts = append(cuts, b, b+1)
	}
	cuts = append(cuts, img.valid)
	for _, cut := range cuts {
		label := fmt.Sprintf("%s cut@%d", scenario, cut)
		dir := restoreState(t, img.state, cut)
		state := img.checkRecovered(t, label, dir)
		matrix.add(walMatrixRow{Scenario: scenario, Cut: cut, State: state})
		if cut == img.valid && state != "h=all,i=all" {
			t.Fatalf("%s: full log recovered to %s, want both statements", label, state)
		}
		if cut == 0 && state != floor {
			t.Fatalf("%s: empty log recovered to %s, want the checkpoint state %s", label, state, floor)
		}
		if rank[state] < rank[floor] {
			t.Fatalf("%s: recovered to %s, behind the checkpoint state %s", label, state, floor)
		}
	}
}

func TestWALFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the WAL crash matrix is the long tier")
	}
	img := buildWALCrashImage(t, false)
	matrix := &walMatrix{}
	defer matrix.writeOut(t)

	// Torn tails at every record boundary of the schedule, plus a tear one
	// byte into each frame (a mid-record torn append). Each statement's
	// commit is one append, so most cuts fall inside one. Every cut must
	// recover to one of the three reference states.
	t.Run("torn-tail", func(t *testing.T) {
		img.sweep(t, matrix, "torn-tail", "h=none,i=none")
	})

	// The same sweep with a checkpoint between the two statements: the
	// checkpoint wrote statement 1 to the data files and moved the replay
	// start past its records, so no cut — not even one to an empty log —
	// may lose it.
	t.Run("checkpoint-between", func(t *testing.T) {
		ck := buildWALCrashImage(t, true)
		ck.sweep(t, matrix, "checkpoint-between", "h=all,i=none")
	})

	// Faults injected into recovery itself: the replay's page writes and the
	// log read both fail mid-recovery. Recovery never truncates the log, so
	// a second, clean attempt over the half-replayed files must still land
	// on full recovery — replay is idempotent.
	t.Run("mid-recovery-fault", func(t *testing.T) {
		for _, spec := range []string{
			"temporal_h:write@1:torn",
			"temporal_h:write@2:fail",
			"temporal_i:write@1:short",
			"wal:read@1",
		} {
			dir := restoreState(t, img.state, -1)
			sched := faultfs.MustParse(spec)
			if db, err := ReopenWAL(dir, bench.Temporal, sched, true); err == nil {
				_ = db.Close()
				t.Fatalf("%s: recovery succeeded with the fault armed", spec)
			} else if !faultfs.IsInjected(err) {
				t.Fatalf("%s: recovery failed with a non-injected error: %v", spec, err)
			}
			state := img.checkRecovered(t, spec+"/retry", dir)
			if state != "h=all,i=all" {
				t.Fatalf("%s: retried recovery landed on %s, want full", spec, state)
			}
			matrix.add(walMatrixRow{Scenario: "mid-recovery " + spec, State: state})
		}
	})

	// A statement that fails part-way, then a commit on the same relation,
	// then a crash. The commit writes every dirty frame of the relation
	// through and logs what its files parked, so the failed statement's
	// partial work would be logged with it were it not reverted: recovery
	// must land on the full schedule, without it. The failure lands on
	// every candidate of the statement in turn.
	t.Run("failed-then-commit", func(t *testing.T) {
		dir := restoreState(t, img.state, -1)
		db, err := ReopenWAL(dir, bench.Temporal, nil, true)
		if err != nil {
			t.Fatalf("recovery reopen: %v", err)
		}
		defer func() {
			if err := db.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		for k := 1; k <= walTouched; k++ {
			mustFail(t, db, divAt("h", k), "division by zero")
			mustExec(t, db, `replace h (seq = h.seq + 1) where h.id = -1`)
			label := fmt.Sprintf("failed at chain %d, then a commit", k)
			state := img.checkRecovered(t, label, restoreState(t, dirState(t, dir), -1))
			if state != "h=all,i=all" {
				t.Fatalf("%s: recovered to %s, want the full schedule", label, state)
			}
			matrix.add(walMatrixRow{Scenario: label, State: state})
		}
	})

	// Crash again immediately after a successful recovery: the second open
	// must land on the same state — recovery leaves the directory as good as
	// a clean checkpoint.
	t.Run("double-crash", func(t *testing.T) {
		dir := restoreState(t, img.state, -1)
		db, err := ReopenWAL(dir, bench.Temporal, nil, true)
		if err != nil {
			t.Fatalf("first recovery: %v", err)
		}
		sameSnap(t, "first recovery", mustSnap(t, db), img.ref2)
		// Abandon db without Close: the second crash.
		state := img.checkRecovered(t, "second recovery", dir)
		if state != "h=all,i=all" {
			t.Fatalf("second recovery landed on %s, want full", state)
		}
		matrix.add(walMatrixRow{Scenario: "double-crash", State: state})
	})

	// A sync fault during Close. Without a log this is the one scenario the
	// engine cannot absorb (a failed close is a crash); with the log the
	// convention holds cleanly — abandon the handle and reopen: every
	// committed statement, including ones run after the recovery, survives.
	t.Run("sync-close", func(t *testing.T) {
		dir := restoreState(t, img.state, -1)
		sched := faultfs.MustParse("wal:sync@1")
		db, err := core.Open(core.Options{
			Dir: dir, WAL: true, WrapFile: sched.Wrap, WrapLog: sched.WrapLog,
		})
		if err != nil {
			t.Fatalf("recovery reopen: %v", err)
		}
		// Async commits leave the armed sync to Close.
		db.DefaultSession().SetSyncCommit(false)
		mustExec(t, db, "range of h is temporal_h\nrange of i is temporal_i")
		mustExec(t, db, fmt.Sprintf(`replace h (seq = h.seq + 1) where h.id = %d`, walTouched+1))
		ref3 := mustSnap(t, db)
		seqs3 := mustSeqs(t, db, "h")
		err = db.Close()
		if err == nil {
			t.Fatalf("close succeeded with the sync fault armed")
		}
		if !faultfs.IsInjected(err) {
			t.Fatalf("close failed with a non-injected error: %v", err)
		}
		// The failed Close is a crash: abandon the handle and recover.
		db2, err := ReopenWAL(dir, bench.Temporal, nil, true)
		if err != nil {
			t.Fatalf("reopen after failed close: %v", err)
		}
		defer func() {
			if err := db2.Close(); err != nil {
				t.Errorf("final close: %v", err)
			}
		}()
		if err := db2.CheckIntegrity(); err != nil {
			t.Fatalf("integrity after failed close: %v", err)
		}
		sameSnap(t, "sync-close", mustSnap(t, db2), ref3)
		got := mustSeqs(t, db2, "h")
		for id, want := range seqs3 {
			if got[id] != want {
				t.Fatalf("sync-close: id %d recovered seq %d, want %d", id, got[id], want)
			}
		}
		matrix.add(walMatrixRow{Scenario: "sync-close", State: "committed"})
	})
}
