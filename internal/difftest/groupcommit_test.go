package difftest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdbms/internal/core"
	"tdbms/internal/storage"
)

// syncCountLog counts the log's sync calls and makes each one slow enough
// that concurrent committers pile up behind the group-commit leader — the
// measurement harness for the syncs-versus-commits ratio.
type syncCountLog struct {
	storage.Log
	syncs *atomic.Int64
	delay time.Duration
}

func (l *syncCountLog) Sync() error {
	time.Sleep(l.delay)
	l.syncs.Add(1)
	return l.Log.Sync()
}

// TestGroupCommitDurability drives N concurrent sessions through synchronous
// commits on a WAL database and checks both halves of the group-commit
// bargain: far fewer log syncs than acknowledged commits, and — after an
// abandon-without-Close crash — every acknowledged statement survives
// recovery. A single sequential session, by contrast, pays exactly one sync
// per commit.
func TestGroupCommitDurability(t *testing.T) {
	const (
		writers = 6
		rounds  = 16
	)
	dir := t.TempDir()
	var syncs atomic.Int64
	open := func() *core.Database {
		t.Helper()
		db, err := core.Open(core.Options{
			Dir: dir, WAL: true, WALGroupWindow: 2 * time.Millisecond,
			WrapLog: func(_ string, l storage.Log) storage.Log {
				return &syncCountLog{Log: l, syncs: &syncs, delay: time.Millisecond}
			},
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()
	for i := 0; i < writers; i++ {
		mustExec(t, db, fmt.Sprintf("create gc%d (id = i4, v = i4)", i))
	}
	setupSyncs := syncs.Load() // DDL checkpoints sync; measure past them

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := db.NewSession(fmt.Sprintf("writer%d", i))
			for k := 0; k < rounds; k++ {
				if _, err := conn.Exec(fmt.Sprintf("append to gc%d (id = %d, v = %d)", i, k, k*i)); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", i, k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	commits := int64(writers * rounds)
	grouped := syncs.Load() - setupSyncs
	if grouped == 0 {
		t.Fatalf("no syncs at all for %d synchronous commits", commits)
	}
	if grouped*2 > commits {
		t.Fatalf("group commit absorbed too little: %d syncs for %d commits", grouped, commits)
	}
	t.Logf("%d commits shared %d syncs", commits, grouped)

	// Crash: abandon db without Close. Every Exec above returned, so every
	// row was acknowledged under a synced commit — recovery must produce all
	// of them.
	db2 := open()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after crash: %v", err)
	}
	for i := 0; i < writers; i++ {
		res, err := db2.Exec(fmt.Sprintf("range of g is gc%d\nretrieve (g.id, g.v)", i))
		if err != nil {
			t.Fatalf("retrieve gc%d: %v", i, err)
		}
		if len(res.Rows) != rounds {
			t.Fatalf("gc%d recovered %d rows, want %d", i, len(res.Rows), rounds)
		}
	}

	// The contrast case: one session committing sequentially has no one to
	// share with — the policy must sync once per acknowledged commit, no
	// more and no fewer.
	const solo = 8
	before := syncs.Load()
	conn := db2.NewSession("solo")
	for k := 0; k < solo; k++ {
		if _, err := conn.Exec(fmt.Sprintf("append to gc0 (id = %d, v = %d)", 100+k, k)); err != nil {
			t.Fatalf("solo append %d: %v", k, err)
		}
	}
	if got := syncs.Load() - before; got != solo {
		t.Fatalf("sequential session paid %d syncs for %d commits, want exactly %d", got, solo, solo)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
