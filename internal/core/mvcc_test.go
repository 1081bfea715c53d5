package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"tdbms/internal/btree"
	"tdbms/internal/tuple"
)

// TestConcurrentWriterConvergence hammers one chain head from many
// sessions, on a static relation (updated in place) and on a rollback one
// (each replace closes the current version and appends the next). The
// exclusive relation latch is each statement's snapshot: a replace reads
// the version the previous writer left, so every increment lands exactly
// once, and on the rollback relation the history holds each seq from 0 to
// the final count exactly once, with one current version.
func TestConcurrentWriterConvergence(t *testing.T) {
	for _, typ := range []string{"static", "persistent"} {
		t.Run(typ, func(t *testing.T) {
			db := newDB(t)
			create := `create r (id = i4, seq = i4)`
			if typ == "persistent" {
				create = `create persistent r (id = i4, seq = i4)`
			}
			mustExec(t, db, create)
			mustExec(t, db, `append to r (id = 1, seq = 0)`)

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
						db.Clock().Advance(1)
						if _, err := s.Exec(`replace x (seq = x.seq + 1) where x.id = 1`); err != nil {
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

			const final = writers * rounds
			cur := rowInts(t, mustExec(t, db, `range of x is r retrieve (x.seq) as of "now"`))
			if len(cur) != 1 || cur[0][0] != final {
				t.Fatalf("current versions %v, want one with seq %d (no lost updates)", cur, final)
			}
			want := []int64{final} // a static relation keeps no history
			if typ == "persistent" {
				want = want[:0]
				for seq := int64(0); seq <= final; seq++ {
					want = append(want, seq)
				}
			}
			hist := rowInts(t, mustExec(t, db, `retrieve (x.seq) as of "beginning" through "forever"`))
			got := make([]int64, len(hist))
			for i, row := range hist {
				got[i] = row[0]
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("history seqs %v, want each of %v exactly once", got, want)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
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

// TestViewKeptAcrossWrites checks the session view cache's lifetime: a
// reader's cached view of r is kept after another session's replace on r,
// after a bulk load into r and after a write to another relation, and
// rebuilt only after a DDL statement. The kept view must reach every
// version the writers added, including those on an overflow page a write
// chained to r's hash bucket.
func TestViewKeptAcrossWrites(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create persistent r (id = i4, seq = i4, pad = c100)
	                 create s (id = i4)
	                 append to r (id = 1, seq = 0, pad = "p")
	                 modify r to hash on id`)
	w, rd := db.NewSession("writer"), db.NewSession("reader")
	for _, c := range []*Conn{w, rd} {
		mustSess(c, `range of x is r`)
	}
	versions := 1
	var view *relHandle
	read := func(step string, rebuilt bool) {
		t.Helper()
		res, err := rd.Exec(`retrieve (x.seq) where x.id = 1 as of "beginning" through "forever"`)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(res.Rows) != versions {
			t.Fatalf("%s: reader sees %d versions, want %d", step, len(res.Rows), versions)
		}
		v := rd.views["r"]
		if view != nil && (v != view) != rebuilt {
			t.Fatalf("%s: view rebuilt = %v, want %v", step, v != view, rebuilt)
		}
		view = v
	}
	pages := func() int {
		n, err := db.NumPages("r")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	read("first read", true)

	mustSess(w, `append to s (id = 1)`)
	read("after a write to s", false)

	// Replace until one chains a new overflow page.
	for before := pages(); pages() == before; {
		mustSess(w, `replace x (seq = x.seq + 1) where x.id = 1`)
		versions++
		read(fmt.Sprintf("after replace %d", versions-1), false)
	}

	before, rows := pages(), make([][]tuple.Value, 0, 32)
	for i := 0; i < cap(rows); i++ {
		rows = append(rows, []tuple.Value{tuple.IntValue(1), tuple.IntValue(int64(1000 + i)), tuple.StrValue("load")})
	}
	if _, err := db.Load("r", rows); err != nil {
		t.Fatal(err)
	}
	if pages() == before {
		t.Fatal("the load chained no overflow page")
	}
	versions += len(rows)
	read("after a load", false)

	mustExec(t, db, `create t (id = i4)`)
	read("after DDL", true)
	read("after nothing", false)
}

// TestViewFollowsRootSplit caches a reader's view of a B-tree relation,
// then appends through a writer session until the root handle's tree has
// grown two levels (some 630 appends). A root split made through the
// writer's view must move the root every view descends from: after each
// append the reader's kept view finds the new row, fetching one page per
// level of the root handle's tree, exactly as many as a fresh session's
// probe.
func TestViewFollowsRootSplit(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `create r (id = i4, pad = c100)
	                 append to r (id = 0, pad = "p")
	                 modify r to btree on id`)
	tree := db.rels["r"].src.(*conventional).file.(*btree.File)
	w, rd := db.NewSession("writer"), db.NewSession("reader")
	for _, c := range []*Conn{w, rd} {
		mustSess(c, `range of x is r`)
	}
	// fetches is the pages a probe for id costs on c: reads plus hits.
	fetches := func(c *Conn, id int) int64 {
		t.Helper()
		before := c.Stats()
		res, err := c.Exec(fmt.Sprintf(`retrieve (x.id) where x.id = %d`, id))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != int64(id) {
			t.Fatalf("probe for %d: rows %v", id, res.Rows)
		}
		d := c.Stats().Sub(before)
		return d.Reads + d.Hits
	}
	fetches(rd, 0)
	view := rd.views["r"]
	start := tree.Height()
	for id := 1; tree.Height() < start+2; id++ {
		if id > 10000 {
			t.Fatalf("root height still %d after %d appends", tree.Height(), id)
		}
		mustSess(w, fmt.Sprintf(`append to r (id = %d, pad = "p")`, id))
		got := fetches(rd, id)
		if want := int64(tree.Height() + 1); got != want {
			t.Fatalf("append %d: kept view fetched %d pages, the root handle's tree has %d levels", id, got, want)
		}
		fresh := db.NewSession("")
		mustSess(fresh, `range of x is r`)
		if want := fetches(fresh, id); got != want {
			t.Fatalf("append %d (height %d): kept view fetched %d pages, a fresh session %d", id, tree.Height(), got, want)
		}
	}
	if rd.views["r"] != view {
		t.Fatal("the reader's view was rebuilt")
	}
}
