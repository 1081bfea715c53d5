package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tdbms/internal/page"
	"tdbms/internal/storage"
	"tdbms/internal/tuple"
)

// The tests below hold the engine's full scans to themselves on the path
// where they read no run: a database whose stores are wrapped lends no
// page, so every scan walks its file on the calling goroutine through
// View. On a lending database at four goroutines the scans of files of
// several morsels walk them in parts; every answer, error, page count,
// hit and EXPLAIN line must be the wrapped database's.

// scanDB builds three relations of 1 200 rows each, large enough to split
// into several morsels: h, temporal and hashed, and i, temporal and ISAM,
// each replaced three times so every bucket or data page heads a chain of
// versions, and x, a static heap with dead slots. wrap hides the stores'
// lending.
func scanDB(t *testing.T, wrap bool) *Database {
	t.Helper()
	opts := Options{Now: epoch}
	if wrap {
		opts.WrapFile = func(_ string, f storage.File) storage.File { return struct{ storage.File }{f} }
	}
	db := MustOpen(opts)
	mustExec(t, db, `create persistent interval h (id = i4, amount = i4, seq = i4, s = c32)
	                 create persistent interval i (id = i4, amount = i4, seq = i4, s = c32)
	                 create x (k = i4, a = i4, v = i4, s = c80)`)
	for _, rel := range []string{"h", "i", "x"} {
		rows := make([][]tuple.Value, 1200)
		for r := range rows {
			rows[r] = []tuple.Value{tuple.IntValue(int64(r + 1)), tuple.IntValue(int64(r%50)*100 + 100),
				tuple.IntValue(0), tuple.StrValue("s")}
		}
		if _, err := db.Load(rel, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `modify h to hash on id where fillfactor = 100
	                 modify i to isam on id where fillfactor = 100
	                 range of h is h
	                 range of i is i
	                 range of x is x
	                 range of a is i
	                 range of b is i`)
	for r := 0; r < 3; r++ {
		db.Clock().Advance(3600)
		mustExec(t, db, `replace h (seq = h.seq + 1)
		                 replace i (seq = i.seq + 1)`)
	}
	// Dead slots in x's pages, its last ones among them: a fill that stops
	// at max after a page's last live tuple has not finished the page.
	mustExec(t, db, `delete x where x.k / 3 * 3 = x.k or x.k / 10 * 10 = x.k + 1`)
	db.Clock().Advance(3600)
	return db
}

// scanStatements are full scans of each kind of file and the statements
// that interleave scans of one relation.
var scanStatements = []string{
	// Hash, ISAM and heap full scans (Q07, Q08).
	`retrieve (h.id, h.seq) where h.amount = 700 when h overlap "now"`,
	`retrieve (i.id, i.seq) where i.amount = 800 when i overlap "now"`,
	`retrieve (x.k, x.v) where x.a = 4900`,
	// A residual that a range cannot absorb, on every version.
	`retrieve (h.id, h.seq) where h.seq + h.amount = 703`,
	// An as-of scan (Q03).
	`retrieve (h.id, h.seq) as of "1:30 1/1/80"`,
	// Rows enough for many batches at every capacity, so batches stop in
	// the middle of a page.
	`retrieve (i.id, i.seq, i.amount)`,
	`retrieve (x.k, x.a)`,
	// A self-join: the inner scans the relation the outer is scanning.
	`retrieve (a.id, b.id) where a.amount = b.amount and a.amount = 700 and b.seq = 3`,
	// Q11: a nested sequential scan.
	`retrieve (h.id, h.seq, i.id, i.seq, i.amount)
	 valid from start of h to end of i
	 where h.amount = 100 and i.amount = 200
	 when start of h precede i
	 as of "2:30 1/1/80"`,
	// Q12: a detachment, then a join over the temporary.
	`retrieve (h.id, h.seq, i.id, i.seq, i.amount)
	 valid from start of (h overlap i) to end of (h extend i)
	 where h.id = 500 and i.amount = 700
	 when h overlap i
	 as of "now"`,
}

// scanAnswer renders what a statement shows: its rows and page counts, or
// its error, its EXPLAIN, and every relation's buffer counters, hits
// included.
func scanAnswer(db *Database, text string) string {
	res, err := db.Exec(text)
	if err != nil {
		return "error: " + err.Error()
	}
	plan, err := db.Explain(text)
	if err != nil {
		return "explain error: " + err.Error()
	}
	out := fmt.Sprintf("%d rows %v\ninput=%d output=%d\n%s", len(res.Rows), res.Rows, res.Input, res.Output, plan)
	for _, rel := range []string{"h", "i", "x"} {
		out += fmt.Sprintf("%s: %+v\n", rel, db.rels[rel].src.Buffers()[0].Stats())
	}
	return out
}

// TestParallelScanPaths runs each statement at batch capacities of 1, 2, 7
// and 256 rows on the wrapped database and on a lending one at four
// goroutines.
func TestParallelScanPaths(t *testing.T) {
	want := scanDB(t, true)
	got := scanDB(t, false)
	for _, rel := range []string{"h", "i", "x"} {
		t.Logf("%s: %d pages", rel, got.rels[rel].src.NumPages())
		if n := got.rels[rel].src.NumPages(); n < 100 {
			t.Fatalf("%s has %d pages: too few to split", rel, n)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, rows := range []int{-1, 2, 7, 0} {
		want.DefaultSession().SetBatchSize(rows)
		got.DefaultSession().SetBatchSize(rows)
		for _, text := range scanStatements {
			w := scanAnswer(want, text)
			if strings.HasPrefix(w, "error") || !strings.Contains(w, "sequential scan") {
				t.Fatalf("%s: no scan in the plan\n%s", text, w)
			}
			if g := scanAnswer(got, text); g != w {
				t.Errorf("batch %d: %s\n got: %s\nwant: %s", rows, text, g, w)
			}
		}
	}
	if res := mustExec(t, got, scanStatements[5]); len(res.Rows) < 3*256 {
		t.Fatalf("%d rows: fewer than three batches", len(res.Rows))
	}
}

// TestParallelScanErrors fails scans part-way on the wrapped database and
// on a lending one at four goroutines: a residual that divides by zero at
// one version of h, placed at the start, the middle and the end of a
// morsel of 16 buckets, and a chain of h looped back on itself. Each must
// end in the wrapped database's error, charge its pages and hits, leave no
// goroutine running, and leave the buffer so that the session's next
// statement counts as it does after the wrapped failure.
func TestParallelScanErrors(t *testing.T) {
	// divide fails at version seq of id: the first id of bucket 32, on
	// its primary page, starts the third morsel; the first of bucket 40
	// is in its middle; the newest version of the last id of bucket 47
	// is at its end.
	divide := func(id, seq int) string {
		return fmt.Sprintf(`retrieve (h.id) where 1000 / ((h.id - %d) * 10 + h.seq - %d) != 0`, id, seq)
	}
	ids := bucketIDs(t)
	cases := []struct {
		name string
		text string
		loop bool
	}{
		{"start", divide(ids[32][0], 0), false},
		{"middle", divide(ids[40][0], 0), false},
		{"end", divide(ids[47][len(ids[47])-1], 3), false},
		{"looped", `retrieve (h.id, h.seq) where h.amount = 700`, true},
	}
	const next = `retrieve (h.id, h.seq) where h.id = 7`
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var answers []string
			for _, wrap := range []bool{true, false} {
				db := scanDB(t, wrap)
				if c.loop {
					loopChain(t, db, 20)
				}
				prev := runtime.GOMAXPROCS(4)
				base := runtime.NumGoroutine()
				for _, rows := range []int{-1, 7, 0} {
					db.DefaultSession().SetBatchSize(rows)
					a := scanAnswer(db, c.text)
					if !strings.HasPrefix(a, "error") {
						t.Fatalf("wrapped=%v batch %d: %s did not fail:\n%s", wrap, rows, c.text, a)
					}
					a += "\n"
					for _, rel := range []string{"h", "i", "x"} {
						a += fmt.Sprintf("%s: %+v\n", rel, db.rels[rel].src.Buffers()[0].Stats())
					}
					answers = append(answers, fmt.Sprintf("batch %d: %s\nthen: %s", rows, a, scanAnswer(db, next)))
				}
				deadline := time.Now().Add(time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				after := runtime.NumGoroutine()
				runtime.GOMAXPROCS(prev)
				if after != base {
					t.Fatalf("wrapped=%v: %d goroutines after the scans, %d before", wrap, after, base)
				}
			}
			for i, w := range answers[:3] {
				if g := answers[3+i]; g != w {
					t.Errorf("\n got: %s\nwant: %s", g, w)
				}
			}
			if c.loop && !strings.Contains(answers[0], page.ErrCorrupt.Error()) {
				t.Fatalf("looped chain: %s", answers[0])
			}
		})
	}
}

// bucketIDs lists the ids scanDB's h hashes into each bucket, ascending.
func bucketIDs(t *testing.T) map[int][]int {
	t.Helper()
	f := scanDB(t, true).rels["h"].src.(*conventional).file.(interface{ Bucket(int64) page.ID })
	ids := map[int][]int{}
	for id := 1; id <= 1200; id++ {
		b := int(f.Bucket(int64(id)))
		ids[b] = append(ids[b], id)
	}
	if len(ids[47]) == 0 {
		t.Fatal("h has fewer than 48 buckets")
	}
	return ids
}

// loopChain links the last page of bucket b's chain back to itself.
func loopChain(t *testing.T, db *Database, b page.ID) {
	t.Helper()
	buf := db.rels["h"].src.Buffers()[0]
	id := b
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
}
