package difftest

import (
	"fmt"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
)

// maxAbsorbed bounds how many injected faults any retry loop will tolerate
// before declaring the schedule runaway (every rule is one-shot, so a loop
// that keeps seeing injected errors past this is a bug).
const maxAbsorbed = 16

// faultScenario is one cell of the fault matrix: a schedule plus the phase
// it is expected to sabotage. Whatever the phase, the invariants are the
// same — wrapped injected errors only, an intact database, and identical
// answers before close and after a clean reopen.
type faultScenario struct {
	name  string
	sched func() *faultfs.Schedule
	phase string // "query", "update", or "close"
}

// TestFaultMatrix drives the crash-consistency half of the oracle. For each
// scenario it builds a clean disk-backed temporal benchmark database (one
// update round, closed so the clock persists), reopens it with the fault
// schedule spliced under every relation file, runs the sabotaged phase, and
// asserts:
//
//   - every failure observed wraps faultfs.ErrInjected — no panics, no
//     unwrapped I/O errors;
//   - CheckIntegrity holds on the live database after the fault;
//   - version chains are per-chain atomic: every current seq is either the
//     pre-fault value or that value plus one, never a torn in-between;
//   - after Close (retried or, for sync faults, abandoned as a crash) and a
//     clean reopen, CheckIntegrity holds and the twelve benchmark queries
//     return byte-identical tuples to the pre-close snapshot.
func TestFaultMatrix(t *testing.T) {
	rels := []string{"temporal_h", "temporal_i"}
	scenarios := []faultScenario{
		{"read", func() *faultfs.Schedule { return faultfs.MustParse("temporal_h:read@3") }, "query"},
		{"write-fail", func() *faultfs.Schedule { return faultfs.MustParse("temporal_h:write@5:fail") }, "update"},
		{"write-torn", func() *faultfs.Schedule { return faultfs.MustParse("temporal_h:write@7:torn") }, "update"},
		{"write-short", func() *faultfs.Schedule { return faultfs.MustParse("temporal_i:write@4:short") }, "update"},
		{"alloc-enospc", func() *faultfs.Schedule { return faultfs.MustParse("temporal_h:alloc@1:enospc") }, "update"},
		{"sync-close", func() *faultfs.Schedule { return faultfs.MustParse("temporal_h:sync@1") }, "close"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		scenarios = append(scenarios, faultScenario{
			name:  fmt.Sprintf("random-%d", seed),
			sched: func() *faultfs.Schedule { return faultfs.Random(seed, rels, 40) },
			phase: "update",
		})
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			runFaultScenario(t, sc)
		})
	}
}

func runFaultScenario(t *testing.T, sc faultScenario) {
	dir := t.TempDir()

	// Phase 0: build the database clean — no faults while establishing the
	// ground truth — and close it so the catalog and clock persist.
	b, err := bench.BuildOpts(bench.Temporal, 100, core.Options{Dir: dir})
	if err != nil {
		t.Fatalf("clean build: %v", err)
	}
	if err := b.Update(); err != nil {
		t.Fatalf("clean update: %v", err)
	}
	if err := b.Inner.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	// Phase 1: reopen with the schedule under every file. The load itself
	// reads pages (index rebuild scans), so early read faults may fire here;
	// they must surface as wrapped injected errors and a retry must succeed
	// because every rule is one-shot.
	sched := sc.sched()
	t.Logf("schedule: %s", sched.String())
	db := reopenRetry(t, dir, sched)
	baseH := seqsRetry(t, db, "h")
	baseI := seqsRetry(t, db, "i")
	if len(baseH) == 0 || len(baseI) == 0 {
		t.Fatalf("empty baseline: %d current h rows, %d current i rows", len(baseH), len(baseI))
	}

	// Phase 2: the sabotaged phase.
	switch sc.phase {
	case "query":
		if _, absorbed, err := SnapshotRetry(db, bench.Temporal, maxAbsorbed); err != nil {
			t.Fatalf("query phase: %v", err)
		} else {
			t.Logf("query phase absorbed %d injected faults", absorbed)
		}
	case "update":
		if err := updateRound(db); err != nil {
			if !faultfs.IsInjected(err) {
				t.Fatalf("update failed with a non-injected error: %v", err)
			}
			t.Logf("update failed as scheduled: %v", err)
		}
	case "close":
		// The fault waits for Close below.
	default:
		t.Fatalf("unknown phase %q", sc.phase)
	}

	// The live database must be intact and per-chain atomic regardless of
	// where the fault landed.
	integrityRetry(t, db)
	checkChains(t, "h", seqsRetry(t, db, "h"), baseH)
	checkChains(t, "i", seqsRetry(t, db, "i"), baseI)

	pre, absorbed, err := SnapshotRetry(db, bench.Temporal, maxAbsorbed)
	if err != nil {
		t.Fatalf("pre-close snapshot: %v", err)
	}
	if absorbed > 0 {
		t.Logf("pre-close snapshot absorbed %d injected faults", absorbed)
	}

	// Phase 3: close. A write fault here fires inside the checkpoint,
	// before any file handle is released, and the frame stays dirty — so
	// retrying Close repairs it. A sync fault fires after the checkpoint,
	// while handles are being released; retrying would double-close, so it
	// is treated as a crash: abandon the handle (the checkpoint already
	// made everything durable) and recover on reopen.
	closed := false
	for attempt := 0; attempt < maxAbsorbed; attempt++ {
		err := db.Close()
		if err == nil {
			closed = true
			break
		}
		if !faultfs.IsInjected(err) {
			t.Fatalf("close failed with a non-injected error: %v", err)
		}
		t.Logf("close failed as scheduled: %v", err)
		if sc.phase == "close" {
			break // crash semantics: abandon, recover on reopen
		}
	}
	if !closed && sc.phase != "close" {
		t.Fatalf("close still failing after %d retries", maxAbsorbed)
	}

	// Phase 4: clean reopen. No faults this time; the persisted state must
	// be intact and answer-identical to the live pre-close snapshot.
	db2, err := Reopen(dir, bench.Temporal, nil)
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after reopen: %v", err)
	}
	checkChains(t, "h", mustSeqs(t, db2, "h"), baseH)
	checkChains(t, "i", mustSeqs(t, db2, "i"), baseI)
	post, err := Snapshot(db2, bench.Temporal)
	if err != nil {
		t.Fatalf("post-reopen snapshot: %v", err)
	}
	for id, want := range pre {
		if got := post[id]; got != want {
			t.Errorf("%s: answers diverge across close/reopen\n live: %q\n disk: %q", id, want, got)
		}
	}
	if len(post) != len(pre) {
		t.Errorf("snapshot size changed across reopen: %d live, %d disk", len(pre), len(post))
	}

	// The batching axis must hold on the recovered database too: every
	// capacity has to read the recorded answers out of whatever state the
	// fault left behind.
	checkGoldenCaps(t, "fault/"+sc.name, bench.Temporal, db2)
}

// updateRound mirrors bench.DB.Update on a reopened database: advance an
// hour, bump every tuple's seq in both relations, advance a minute. It stops
// at the first error, which is how a failed statement leaves earlier chains
// committed and the failing chain rolled back.
func updateRound(db *core.Database) error {
	db.Clock().Advance(3600)
	for _, v := range []string{"h", "i"} {
		if _, err := db.Exec(fmt.Sprintf(`replace %s (seq = %s.seq + 1)`, v, v)); err != nil {
			return err
		}
	}
	db.Clock().Advance(60)
	return nil
}

// checkChains asserts per-chain atomicity: the faulted update either fully
// applied or fully rolled back for each key — every current seq is base or
// base+1, no key vanished, no key appeared.
func checkChains(t *testing.T, v string, got, base map[int64]int64) {
	t.Helper()
	if len(got) != len(base) {
		t.Errorf("%s: current-version count changed: %d, was %d", v, len(got), len(base))
	}
	for id, seq := range got {
		b, ok := base[id]
		if !ok {
			t.Errorf("%s: id %d appeared out of nowhere (seq %d)", v, id, seq)
			continue
		}
		if seq != b && seq != b+1 {
			t.Errorf("%s: id %d has torn seq %d (base %d)", v, id, seq, b)
		}
	}
}

// reopenRetry opens the benchmark database with the schedule spliced in,
// retrying while the open itself trips one-shot injected faults.
func reopenRetry(t *testing.T, dir string, sched *faultfs.Schedule) *core.Database {
	t.Helper()
	for attempt := 0; ; attempt++ {
		db, err := Reopen(dir, bench.Temporal, sched)
		if err == nil {
			return db
		}
		if !faultfs.IsInjected(err) {
			t.Fatalf("reopen failed with a non-injected error: %v", err)
		}
		if attempt >= maxAbsorbed {
			t.Fatalf("reopen still failing after %d retries: %v", attempt, err)
		}
		t.Logf("reopen failed as scheduled, retrying: %v", err)
	}
}

// seqsRetry is CurrentSeqs with injected-fault retry.
func seqsRetry(t *testing.T, x Execer, v string) map[int64]int64 {
	t.Helper()
	for attempt := 0; ; attempt++ {
		m, err := CurrentSeqs(x, bench.Temporal, v)
		if err == nil {
			return m
		}
		if !faultfs.IsInjected(err) {
			t.Fatalf("current seqs of %s: %v", v, err)
		}
		if attempt >= maxAbsorbed {
			t.Fatalf("current seqs of %s still failing after %d retries: %v", v, attempt, err)
		}
	}
}

// mustSeqs is CurrentSeqs on a fault-free database.
func mustSeqs(t *testing.T, x Execer, v string) map[int64]int64 {
	t.Helper()
	m, err := CurrentSeqs(x, bench.Temporal, v)
	if err != nil {
		t.Fatalf("current seqs of %s: %v", v, err)
	}
	return m
}

// integrityRetry is CheckIntegrity with injected-fault retry (the check
// scans every page, so pending read faults can fire inside it).
func integrityRetry(t *testing.T, db *core.Database) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := db.CheckIntegrity()
		if err == nil {
			return
		}
		if !faultfs.IsInjected(err) {
			t.Fatalf("integrity check: %v", err)
		}
		if attempt >= maxAbsorbed {
			t.Fatalf("integrity check still failing after %d retries: %v", attempt, err)
		}
	}
}
