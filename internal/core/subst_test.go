package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// The tests below hold the engine's substitution join to itself on the
// path where it reads no run: a database whose stores are wrapped lends no
// page, so every probe runs on the calling goroutine through View. On a
// lending database, with one goroutine and with more than there are cores,
// every answer, error, page count and EXPLAIN line must be the wrapped
// database's.

// substDB builds an outer heap o of 600 rows and three inner relations
// over ids 1..150: s, static and hashed into one-page buckets, and two
// temporal ones, d hashed and e ISAM, each replaced three times so every
// probe walks a chain of versions. Outer keys run past the
// inner ids, so some probes find nothing, and every third repeats the one
// before it. wrap hides the stores' lending.
func substDB(t *testing.T, wrap bool) *Database {
	t.Helper()
	opts := Options{Now: epoch}
	if wrap {
		opts.WrapFile = func(_ string, f storage.File) storage.File { return struct{ storage.File }{f} }
	}
	db := MustOpen(opts)
	mustExec(t, db, `create o (k = i4, a = i4, name = c10)
	                 create s (id = i4, val = i4)
	                 create persistent interval d (id = i4, val = i4)
	                 create persistent interval e (id = i4, val = i4)`)
	for i := 0; i < 600; i++ {
		k := i * 7 % 170
		if i%3 == 2 { // probe the key of the row before again: a hit on its last page
			k = (i - 1) * 7 % 170
		}
		mustExec(t, db, fmt.Sprintf(`append to o (k = %d, a = %d, name = "n%d")`, k, i, i))
	}
	for id := 1; id <= 150; id++ {
		mustExec(t, db, fmt.Sprintf(`append to s (id = %d, val = %d)
		                             append to d (id = %d, val = %d)
		                             append to e (id = %d, val = %d)`, id, id%5, id, id%5, id, id%5))
	}
	mustExec(t, db, `modify s to hash on id where fillfactor = 50
	                 modify d to hash on id where fillfactor = 100
	                 modify e to isam on id where fillfactor = 100
	                 range of o is o
	                 range of s is s
	                 range of d is d
	                 range of e is e`)
	for r := 0; r < 3; r++ {
		db.Clock().Advance(3600)
		mustExec(t, db, `replace d (val = d.val + 1)
		                 replace e (val = e.val + 1)`)
	}
	db.Clock().Advance(3600)
	return db
}

// substAnswer renders what a statement shows: its rows and page counts, or
// its error, its EXPLAIN, and every relation's buffer counters, hits
// included.
func substAnswer(db *Database, text string) string {
	res, err := db.Exec(text)
	if err != nil {
		return "error: " + err.Error()
	}
	plan, err := db.Explain(text)
	if err != nil {
		return "explain error: " + err.Error()
	}
	out := fmt.Sprintf("%v\ninput=%d output=%d\n%s", res.Rows, res.Input, res.Output, plan)
	for _, rel := range []string{"o", "s", "d", "e"} {
		out += fmt.Sprintf("%s: %+v\n", rel, db.rels[rel].src.Buffers()[0].Stats())
	}
	return out
}

var substStatements = []string{
	`retrieve (o.a, s.id, s.val) where o.k = s.id`,
	`retrieve (o.a, d.id, d.val) where o.k = d.id`,
	`retrieve (o.a, e.id, e.val) where o.k = e.id`,
	// The inner leaf keeps a residual, compiled once per worker.
	`retrieve (o.a, d.val) where o.k = d.id and d.val != 3 when d overlap "now"`,
	`retrieve (o.a, e.val) where o.k = e.id and e.val != 2 as of "now"`,
	// An empty outer side.
	`retrieve (o.a, d.val) where o.k = d.id and o.a < 0`,
	// A key that is not a number.
	`retrieve (o.a, d.val) where o.name = d.id`,
}

// TestSubstitutionJoinPaths runs each statement at outer batches of 1 and
// 256 rows on the wrapped database and on lending ones at one, two and
// four goroutines.
func TestSubstitutionJoinPaths(t *testing.T) {
	want := substDB(t, true)
	got := substDB(t, false)
	for _, rows := range []int{-1, 0} {
		want.DefaultSession().SetBatchSize(rows)
		got.DefaultSession().SetBatchSize(rows)
		for _, text := range substStatements {
			for _, procs := range []int{1, 2, 4} {
				// Both databases run every statement equally often: the
				// first reader of a relation a writer left dirty flushes it.
				w := substAnswer(want, text)
				if !strings.Contains(w, "substitution") && !strings.HasPrefix(w, "error") {
					t.Fatalf("%s: no substitution join in the plan\n%s", text, w)
				}
				prev := runtime.GOMAXPROCS(procs)
				g := substAnswer(got, text)
				runtime.GOMAXPROCS(prev)
				if g != w {
					t.Errorf("batch %d, %d goroutines: %s\n got: %s\nwant: %s", rows, procs, text, g, w)
				}
			}
		}
	}
}

// TestSubstitutionJoinLoopedChain links the last page of one of d's
// chains back to itself. The join's probes of that chain, on whichever
// goroutine, must end the statement in the walk's am.Overrun, with the
// wrapped database's message, and leave no goroutine running.
func TestSubstitutionJoinLoopedChain(t *testing.T) {
	const text = `retrieve (o.a, d.val) where o.k = d.id`
	var msgs []string
	for _, wrap := range []bool{true, false} {
		db := substDB(t, wrap)
		buf := db.rels["d"].src.Buffers()[0]
		id := page.ID(3)
		for {
			p, err := buf.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if p.Next() == page.Nil {
				break
			}
			id = p.Next()
		}
		p, err := buf.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.SetNext(id)
		buf.MarkDirty()
		if err := buf.Flush(); err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(4)
		base := runtime.NumGoroutine()
		_, err = db.Exec(text)
		// A worker has done its work before the statement returns, but its
		// goroutine may not have finished exiting.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		after := runtime.NumGoroutine()
		runtime.GOMAXPROCS(prev)
		if !errors.Is(err, page.ErrCorrupt) {
			t.Fatalf("wrapped=%v: join over a looped chain: %v, want page.ErrCorrupt", wrap, err)
		}
		if after != base {
			t.Fatalf("wrapped=%v: %d goroutines after the join, %d before", wrap, after, base)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("lending database: %q\nwrapped database: %q", msgs[1], msgs[0])
	}
}

// TestSubstitutionJoinThenWriter runs a join over the hashed and over the
// ISAM inner relation on a session of its own, then, on another session, a
// writer of that relation, which must run at once: the tapes of the join's
// shared walks, and the pages they hold on loan, end with its statement.
// The session's cached join, run twice more, must show the write, with the
// wrapped database's rows and counts, at one, two and four goroutines: the
// first run after the writer flushes the frame the writer left dirty and
// probes without runs, the second shares its walks again.
func TestSubstitutionJoinThenWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		var answers [2][]string
		for k, wrap := range []bool{true, false} {
			db := substDB(t, wrap)
			runtime.GOMAXPROCS(procs)
			for _, rel := range []string{"d", "e"} {
				c := db.NewSession("reader")
				text := fmt.Sprintf(`retrieve (o.a, %[1]s.id, %[1]s.val) where o.k = %[1]s.id`, rel)
				if _, err := c.Exec("range of o is o\nrange of " + rel + " is " + rel); err != nil {
					t.Fatal(err)
				}
				run := func() string {
					res, err := c.Exec(text)
					if err != nil {
						t.Fatal(err)
					}
					return fmt.Sprintf("%v\ninput=%d %+v", res.Rows, res.Input, db.rels[rel].src.Buffers()[0].Stats())
				}
				before := run()
				wrote := make(chan error, 1)
				go func() {
					_, err := db.NewSession("writer").Exec(fmt.Sprintf(`range of x is %s
					replace x (val = x.val + 100) where x.id = 7`, rel))
					wrote <- err
				}()
				select {
				case err := <-wrote:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("procs %d: the writer of %s did not run within 10 s of the join", procs, rel)
				}
				after, again := run(), run()
				if after == before {
					t.Fatalf("procs %d: the join over %s does not show the write", procs, rel)
				}
				if walks := SubstWalks(c); !wrap && !slices.ContainsFunc(walks, func(w [2]int64) bool { return w[0] > 0 }) {
					t.Fatalf("procs %d: the join over %s shared no walk: %v", procs, rel, walks)
				}
				answers[k] = append(answers[k], before, after, again)
			}
		}
		for i, w := range answers[0] {
			if g := answers[1][i]; g != w {
				t.Errorf("procs %d: lending database:\n%s\nwrapped database:\n%s", procs, g, w)
			}
		}
	}
}
