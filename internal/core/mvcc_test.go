package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFirstUpdaterWins drives the conflict seam deterministically: two
// sessions observe the same watermark, the first to reach the chain head
// wins, and the loser either surfaces ErrConflict (error mode) or
// transparently restarts its snapshot (retry mode, the default).
func TestFirstUpdaterWins(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (id = i4, v = i4)`)
	mustExec(t, db, `append to r (id = 1, v = 0)`)

	a := db.NewSession("a")
	b := db.NewSession("b")
	for _, s := range []*Conn{a, b} {
		if _, err := s.Exec(`range of x is r`); err != nil {
			t.Fatal(err)
		}
	}

	// Both sessions start from the same watermark; b keeps it pinned past
	// a's write, the deterministic equivalent of losing the latch race.
	wm := db.stamp.Load()
	b.testWM = &wm
	b.SetConflictRetry(false)

	if _, err := a.Exec(`replace x (v = 1) where x.id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(`replace x (v = 2) where x.id = 1`); !errors.Is(err, ErrConflict) {
		t.Fatalf("loser's replace: %v, want ErrConflict", err)
	}
	if _, err := b.Exec(`delete x where x.id = 1`); !errors.Is(err, ErrConflict) {
		t.Fatalf("loser's delete: %v, want ErrConflict", err)
	}
	r := mustExec(t, db, `range of x is r retrieve (x.v) where x.id = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 1 {
		t.Fatalf("after conflict, v = %v, want the winner's 1", r.Rows)
	}

	// Retry mode: the same stale watermark restarts transparently and the
	// statement applies against the current head.
	b.SetConflictRetry(true)
	if _, err := b.Exec(`replace x (v = 3) where x.id = 1`); err != nil {
		t.Fatalf("retry-mode replace: %v", err)
	}
	r = mustExec(t, db, `retrieve (x.v) where x.id = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 3 {
		t.Fatalf("after retry, v = %v, want 3", r.Rows)
	}
}

// TestConcurrentWriterConvergence hammers one chain head from many
// sessions under the default retry policy: every increment must land
// exactly once (the exclusive relation latch serializes the statements;
// the watermark restart absorbs the latch-wait races).
func TestConcurrentWriterConvergence(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (id = i4, v = i4)`)
	mustExec(t, db, `append to r (id = 1, v = 0)`)

	const writers, rounds = 8, 25
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession(fmt.Sprintf("w%d", w))
			if _, err := s.Exec(`range of x is r`); err != nil {
				errs <- err
				return
			}
			for i := 0; i < rounds; i++ {
				if _, err := s.Exec(`replace x (v = x.v + 1) where x.id = 1`); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	r := mustExec(t, db, `range of x is r retrieve (x.v) where x.id = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != writers*rounds {
		t.Fatalf("v = %v, want %d (no lost updates)", r.Rows, writers*rounds)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLatchOrderingNoDeadlock runs two sessions whose statements latch the
// same two relations in opposite roles — (a exclusive, b shared) against
// (b exclusive, a shared) — concurrently. Sorted-name acquisition makes
// the pattern deadlock-free; a regression hangs, so the test watches the
// clock. The appended rows carry id 2, which neither qualification selects:
// were they to qualify, each writer would multiply the other's next
// statement and the work would grow with the interleaving.
func TestLatchOrderingNoDeadlock(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create a (id = i4, v = i4)`)
	mustExec(t, db, `create b (id = i4, v = i4)`)
	mustExec(t, db, `append to a (id = 1, v = 0)`)
	mustExec(t, db, `append to b (id = 1, v = 0)`)

	const iters = 50
	errs := make(chan error, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, dir := range []struct{ name, rng, stmt string }{
		{"ab", `range of av is a`, `append to b (id = av.id + 1, v = av.v) where av.id = 1`},
		{"ba", `range of bv is b`, `append to a (id = bv.id + 1, v = bv.v) where bv.id = 1`},
	} {
		wg.Add(1)
		go func(rng, stmt string) {
			defer wg.Done()
			s := db.NewSession("")
			if _, err := s.Exec(rng); err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := s.Exec(stmt); err != nil {
					errs <- err
					return
				}
			}
		}(dir.rng, dir.stmt)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("opposite-order latch sets did not finish: likely deadlock")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
