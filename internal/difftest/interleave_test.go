package difftest

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
	"tdbms/internal/faultfs"
	"tdbms/internal/temporal"
	"tdbms/internal/tuple"
)

// TestChainInterleaving is the multi-writer half of the oracle: N writer
// sessions hammer the same rollback chains while M reader sessions read
// them. Each reader statement holds the relation's shared latch for its
// full scan, so every cut it sees must be
// prefix-consistent: the versions of a key are exactly seq 0..k with no
// gap, the current cut has exactly one version per key, and neither view
// ever moves backwards between a reader's successive statements. When the
// writers drain, every increment must have landed exactly once.
//
// Readers also hold on to what they read. A statement's tuples are copied
// off pages the store lends and into an arena the session's next statement
// recycles, so each reader keeps the previous cut's rows — the tag column
// is a string cut from tuple bytes — across its own next statement and
// whatever the writers did meanwhile, and checks them against a deep copy
// taken when they were read.
func TestChainInterleaving(t *testing.T) {
	db := core.MustOpen(core.Options{Now: temporal.Date(1980, 1, 1, 0, 0, 0)})
	defer db.Close()
	if _, err := db.Exec("create persistent chain (id = i4, seq = i4, tag = c12)\nrange of c is chain"); err != nil {
		t.Fatal(err)
	}
	const keys = 4
	for id := 1; id <= keys; id++ {
		if _, err := db.Exec(fmt.Sprintf(`append to chain (id = %d, seq = 0, tag = "loaded")`, id)); err != nil {
			t.Fatal(err)
		}
	}

	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const rounds = 10
	var (
		wgW, wgR sync.WaitGroup
		done     atomic.Bool
		errs     = make(chan error, writers+4)
		session  = func(name string) (*core.Conn, error) {
			s := db.NewSession(name)
			_, err := s.Exec(`range of c is chain`)
			return s, err
		}
	)

	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			s, err := session(fmt.Sprintf("writer-%d", w))
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				db.Clock().Advance(1)
				for id := 1; id <= keys; id++ {
					stmt := fmt.Sprintf(`replace c (seq = c.seq + 1, tag = "w%d-r%d") where c.id = %d`, w, r, id)
					if _, err := s.Exec(stmt); err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	// chainCut reads the full version chains in one statement (the rollback
	// default window is "as of now", so the full transaction-time extent is
	// requested explicitly) and checks the prefix invariant; it returns max
	// seq per key.
	chainCut := func(s *core.Conn) (map[int64]int64, [][]tuple.Value, error) {
		res, err := s.Exec(`retrieve (c.id, c.seq, c.tag) as of "beginning" through "forever"`)
		if err != nil {
			return nil, nil, err
		}
		seqs := make(map[int64]map[int64]bool, keys)
		for _, row := range res.Rows {
			id, seq := row[0].I, row[1].I
			if seqs[id] == nil {
				seqs[id] = make(map[int64]bool)
			}
			if seqs[id][seq] {
				return nil, nil, fmt.Errorf("key %d: seq %d appears twice in one cut", id, seq)
			}
			seqs[id][seq] = true
		}
		max := make(map[int64]int64, keys)
		for id, set := range seqs {
			for s := int64(0); s < int64(len(set)); s++ {
				if !set[s] {
					return nil, nil, fmt.Errorf("key %d: chain cut has %d versions but is missing seq %d", id, len(set), s)
				}
			}
			max[id] = int64(len(set)) - 1
		}
		return max, res.Rows, nil
	}
	// currentCut reads the as-of-now cut: exactly one version per key.
	currentCut := func(s *core.Conn) (map[int64]int64, [][]tuple.Value, error) {
		res, err := s.Exec(`retrieve (c.id, c.seq, c.tag) as of "now"`)
		if err != nil {
			return nil, nil, err
		}
		cur := make(map[int64]int64, keys)
		for _, row := range res.Rows {
			id, seq := row[0].I, row[1].I
			if prev, dup := cur[id]; dup {
				return nil, nil, fmt.Errorf("key %d: two current versions (seq %d and %d)", id, prev, seq)
			}
			cur[id] = seq
		}
		if len(cur) != keys {
			return nil, nil, fmt.Errorf("current cut has %d keys, want %d", len(cur), keys)
		}
		return cur, res.Rows, nil
	}

	reader := func(name string, cut func(*core.Conn) (map[int64]int64, [][]tuple.Value, error)) {
		defer wgR.Done()
		s, err := session(name)
		if err != nil {
			errs <- err
			return
		}
		last := make(map[int64]int64)
		var kept [][]tuple.Value // the previous cut's rows, as the engine returned them
		var keptCopy []string    // their rendering, on memory of the test's own
		observe := func() bool {
			seen, rows, err := cut(s)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				return false
			}
			for i, row := range kept {
				if got := renderRow(row); got != keptCopy[i] {
					errs <- fmt.Errorf("%s: a kept row changed after later statements: %q, was %q", name, got, keptCopy[i])
					return false
				}
			}
			kept, keptCopy = rows, keptCopy[:0]
			for _, row := range rows {
				keptCopy = append(keptCopy, renderRow(row))
			}
			for id, seq := range seen {
				if seq < last[id] {
					errs <- fmt.Errorf("%s: key %d went backwards: %d after %d", name, id, seq, last[id])
					return false
				}
				last[id] = seq
			}
			return true
		}
		for !done.Load() {
			if !observe() {
				return
			}
		}
		observe() // one final cut after the writers drain
	}
	for m := 0; m < 2; m++ {
		wgR.Add(2)
		go reader(fmt.Sprintf("chain-reader-%d", m), chainCut)
		go reader(fmt.Sprintf("current-reader-%d", m), currentCut)
	}

	wgW.Wait()
	done.Store(true)
	wgR.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	final, _, err := currentCut(db.DefaultSession())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(writers * rounds)
	for id, seq := range final {
		if seq != want {
			t.Errorf("key %d: final seq %d, want %d (lost or duplicated update)", id, seq, want)
		}
	}
	if max, _, err := chainCut(db.DefaultSession()); err != nil {
		t.Error(err)
	} else {
		for id, m := range max {
			if m != want {
				t.Errorf("key %d: chain max seq %d, want %d", id, m, want)
			}
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// renderRow prints a result row's values, strings included, byte for byte.
func renderRow(row []tuple.Value) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%d|%q|", v.I, v.S)
	}
	return b.String()
}

// TestFaultMatrixConcurrentWriters combines the two oracles: GOMAXPROCS
// writer sessions update disjoint chains of the disk-backed temporal
// benchmark database while a random fault schedule sabotages its files.
// Failed statements must surface wrapped injected errors, roll their
// chain back whole, and leave the exact success count applied; the
// answers must survive close and clean reopen.
func TestFaultMatrixConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	b, err := bench.BuildOpts(bench.Temporal, 100, core.Options{Dir: dir})
	if err != nil {
		t.Fatalf("clean build: %v", err)
	}
	if err := b.Inner.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	sched := faultfs.Random(7, []string{"temporal_h", "temporal_i"}, 40)
	t.Logf("schedule: %s", sched.String())
	db := reopenRetry(t, dir, sched)
	base := seqsRetry(t, db, "h")

	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	ids := make([]int64, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) < writers {
		writers = len(ids)
	}

	const rounds = 4
	applied := make([]int64, writers)
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession(fmt.Sprintf("fault-writer-%d", w))
			if _, err := s.Exec(`range of h is temporal_h`); err != nil && !faultfs.IsInjected(err) {
				errs <- err
				return
			}
			stmt := fmt.Sprintf(`replace h (seq = h.seq + 1) where h.id = %d`, ids[w])
			for r := 0; r < rounds; r++ {
				db.Clock().Advance(1)
				for attempt := 0; ; attempt++ {
					_, err := s.Exec(stmt)
					if err == nil {
						applied[w]++
						break
					}
					if !faultfs.IsInjected(err) {
						errs <- fmt.Errorf("writer %d: non-injected failure: %w", w, err)
						return
					}
					if attempt >= maxAbsorbed {
						errs <- fmt.Errorf("writer %d: still failing after %d retries: %w", w, attempt, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	integrityRetry(t, db)
	live := seqsRetry(t, db, "h")
	for w := 0; w < writers; w++ {
		id := ids[w]
		if got, want := live[id], base[id]+applied[w]; got != want {
			t.Errorf("id %d: live seq %d, want %d (%d applied rounds)", id, got, want, applied[w])
		}
	}

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
	}
	if !closed {
		t.Fatalf("close still failing after %d retries", maxAbsorbed)
	}

	db2, err := Reopen(dir, bench.Temporal, nil)
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after reopen: %v", err)
	}
	disk := mustSeqs(t, db2, "h")
	for w := 0; w < writers; w++ {
		id := ids[w]
		if got, want := disk[id], base[id]+applied[w]; got != want {
			t.Errorf("id %d: disk seq %d, want %d", id, got, want)
		}
	}
}
