package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdbms/internal/page"
	"tdbms/internal/storage"
)

// The tests below end statements early while the helper goroutines of
// their scans and joins run ahead of the calling goroutine: a target list
// that fails on a row of a later output batch, a detachment whose
// temporary fills up part-way, a nested scan whose inner scan's helpers
// run beside the outer's, and a looped chain that only the helpers,
// walking ahead, reach before the statement fails elsewhere. Each must
// end in the error and the counts of the database that lends nothing,
// where everything runs on the calling goroutine; no helper may outlive
// the statement; a statement that writes the relation must then run at
// once; and the session's cached statement, executed again, must show
// the rows and counts a fresh session shows.

// fullFile is a temporary's file with room for pages pages.
type fullFile struct {
	storage.File
	pages int
}

// errTempFull is the error a full temporary's allocation fails with.
var errTempFull = errors.New("temporary full")

// Allocate implements storage.File.
func (f fullFile) Allocate() (page.ID, error) {
	if f.NumPages() >= f.pages {
		return 0, errTempFull
	}
	return f.File.Allocate()
}

// endAnswer renders what a statement shows on session c: its rows, or its
// error, its page counts, the session's account over it, and the buffer
// counters of rels.
func endAnswer(db *Database, c *Conn, rels []string, text string) string {
	before := c.Stats()
	res, err := c.Exec(text)
	out := fmt.Sprintf("error: %v\n", err)
	if err == nil {
		out = fmt.Sprintf("%d rows %v\ninput=%d/%d output=%d\n", len(res.Rows), res.Rows, res.Input, res.InputOps, res.Output)
	}
	out += fmt.Sprintf("session: %+v\n", c.Stats().Sub(before))
	for _, rel := range rels {
		out += fmt.Sprintf("%s: %+v\n", rel, db.rels[rel].src.Buffers()[0].Stats())
	}
	return out
}

// TestHelpersEndEarly runs each case on the database that lends nothing
// and on a lending one at four goroutines: the failing statement, a write
// of the relation it read, the statement's shape again with a literal
// that does not fail, and that statement on a fresh session.
func TestHelpersEndEarly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ids := bucketIDs(t)
	scanRels := []string{"h", "i", "x"}
	scanRanges := `range of h is h
	               range of i is i
	               range of x is x`
	substRels := []string{"o", "s", "d", "e"}
	substRanges := `range of o is o
	                range of d is d`
	q09 := `retrieve (h.id, i.id, r = 1000 / (i.amount - %d)) where h.id = i.amount when h overlap i and i overlap "now"`
	cases := []struct {
		name   string
		subst  bool    // substDB, else scanDB
		loop   page.ID // a bucket of h whose chain loops back on itself; 0 for none
		full   bool    // the first statement's temporaries hold 8 pages
		text   string  // fails
		again  string  // text's shape with a literal that does not fail
		write  string  // writes the relation text reads
		failed string  // what text's error says
	}{
		{name: "scan target",
			text:   fmt.Sprintf(`retrieve (h.id, r = 1000 / (h.id - %d))`, ids[32][0]),
			again:  `retrieve (h.id, r = 1000 / (h.id - 5000))`,
			write:  `replace h (seq = h.seq) where h.id = 0`,
			failed: "division by zero"},
		{name: "join target", subst: true,
			text:   `retrieve (o.a, r = 1000 / (o.a - 400), d.val) where o.k = d.id`,
			again:  `retrieve (o.a, r = 1000 / (o.a - 9000), d.val) where o.k = d.id`,
			write:  `replace d (val = d.val) where d.id = 0`,
			failed: "division by zero"},
		{name: "detachment full", full: true,
			text:   fmt.Sprintf(q09, 0),
			again:  fmt.Sprintf(q09, 1),
			write:  `replace i (seq = i.seq) where i.id = 0`,
			failed: errTempFull.Error()},
		// A nested sequential scan: the inner scan of x, opened again
		// for each row of h, runs its helpers beside the outer scan's.
		{name: "nested scans",
			text:   fmt.Sprintf(`retrieve (h.id, x.k, r = 1000 / (h.id - %d)) where h.seq = x.v`, ids[0][2]),
			again:  fmt.Sprintf(`retrieve (h.id, x.k, r = 1000 / (h.id - %d)) where h.seq = x.v`, ids[0][1]),
			write:  `replace x (v = x.v) where x.k = 0`,
			failed: "division by zero"},
		{name: "loop ahead", loop: 47,
			text:   fmt.Sprintf(`retrieve (h.id, r = 1000 / (h.id - %d))`, ids[20][0]),
			again:  `retrieve (h.id, r = 1000 / (h.id - 5000))`,
			write:  `replace h (seq = h.seq) where h.id = 0`,
			failed: "division by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rels, ranges := scanRels, scanRanges
			if c.subst {
				rels, ranges = substRels, substRanges
			}
			var answers [2][]string
			for k, wrap := range []bool{true, false} {
				var db *Database
				if c.subst {
					db = substDB(t, wrap)
				} else {
					db = scanDB(t, wrap)
				}
				if c.loop != 0 {
					loopChain(t, db, c.loop)
				}
				var full atomic.Bool
				wrapFile := db.opts.WrapFile
				db.opts.WrapFile = func(name string, f storage.File) storage.File {
					if strings.HasPrefix(name, "tmp") && full.Load() {
						f = fullFile{File: f, pages: 8}
					}
					if wrapFile != nil {
						f = wrapFile(name, f)
					}
					return f
				}
				base := runtime.NumGoroutine()
				def := db.DefaultSession()
				full.Store(c.full)
				a := endAnswer(db, def, rels, c.text)
				full.Store(false)
				if !strings.Contains(a, c.failed) {
					t.Fatalf("wrapped=%v: %s: want an error saying %q:\n%s", wrap, c.text, c.failed, a)
				}
				answers[k] = append(answers[k], a)
				deadline := time.Now().Add(time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if g := runtime.NumGoroutine(); g != base {
					t.Fatalf("wrapped=%v: %d goroutines after the statement, %d before", wrap, g, base)
				}
				wrote := make(chan error, 1)
				go func() {
					_, err := db.NewSession("writer").Exec(ranges + "\n" + c.write)
					wrote <- err
				}()
				select {
				case err := <-wrote:
					if err != nil {
						t.Fatalf("wrapped=%v: %s: %v", wrap, c.write, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("wrapped=%v: %s did not run within 10 s", wrap, c.write)
				}
				// The cached statement and a fresh session's, each from
				// empty frames.
				if err := db.InvalidateBuffers(); err != nil {
					t.Fatal(err)
				}
				warm := endAnswer(db, def, nil, c.again)
				if err := db.InvalidateBuffers(); err != nil {
					t.Fatal(err)
				}
				fresh := db.NewSession("fresh")
				if _, err := fresh.Exec(ranges); err != nil {
					t.Fatal(err)
				}
				cold := endAnswer(db, fresh, nil, c.again)
				if warm != cold {
					t.Fatalf("wrapped=%v: the cached statement after the failure\n%s\na fresh session\n%s", wrap, warm, cold)
				}
				answers[k] = append(answers[k], warm)
			}
			for i, w := range answers[0] {
				if g := answers[1][i]; g != w {
					t.Errorf("lending database:\n%s\nwrapped database:\n%s", g, w)
				}
			}
		})
	}
}
